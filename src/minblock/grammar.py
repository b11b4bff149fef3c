"""Dictionary grammars, their emission as bits, and block-grammar expansion.

A dictionary grammar over terminals {1..m} is an ordered list of rules; rule
``i`` (1-based) defines symbol ``m + i`` and may only reference strictly
smaller symbols.  The last rule is the primary rule.

The grammar is serialized rule by rule with the code of
:mod:`minblock.codes`: each rule is the codewords of its symbols followed by
the separator 0, and the whole grammar ends with the terminator -1.  The
emitter and the parser take any dictionary grammar, and both work on whole
arrays: the emitter reads each reference's codeword and length from tables
over the rule IDs and packs all codewords into 64-bit words at once; the
parser finds the codeword starts by walking every chunk of the payload in
lockstep, the first from bit 0 and so on the parse, which a prefix code
allows because walks from a wrong start soon fall in step with the true
one; the chunks are longer for a longer payload, up to a fixed cap.  Then
it reads each codeword from one 64-bit window.

Only block grammars are expanded: terminal k-blocks, then a primary rule of
a head run, references and a tail run.  That is the only shape the block
transform builds, and its output is one gather of the cited blocks between
the two runs.

A grammar is stored as two read-only int64 arrays: all rule bodies laid end
to end, and the offsets where each rule starts.  The block build, the shape
checks, the emitter, the code length, the parser and the expansion all read
and write these arrays; the tuples of ``DictionaryGrammar.rules`` are built
only when a caller reads them.  ``encode_symbol`` and ``decode_symbol``
remain the single-codeword definition of the code; the array paths produce
and accept exactly the same bits, and the parser raises the same error class
``decode_symbol`` would at the first bad codeword.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, chain
from math import isqrt

import numpy as np

from .bits import BitReader, BitString, CorruptionError, ExpansionLimitError
from .codes import (
    _DELTA_HEADS,
    _DELTA_WINDOW,
    _LOW_BITS,
    SymbolCode,
    _rank_length_table,
    decode_symbol,
)

Rule = tuple[int, ...]


def symbol_dtype(m: int):
    """Smallest unsigned dtype able to hold terminals 1..m (at most 2**32 - 1)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if m <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"alphabet size {m} is above 2**32 - 1")


def _symbol_sequence(u) -> np.ndarray:
    """``u`` as a one-dimensional integer array, not converted further.

    This is the one input form of every function that reads a symbol
    sequence: a one-dimensional integer array, or a list of ints.  An empty
    sequence of no integer type is an empty uint8 array.  Raises ValueError
    on anything else, such as floats or a two-dimensional array.
    """
    arr = np.asarray(u)
    if arr.dtype.kind not in "iu":
        if arr.size:
            raise ValueError("symbols must be integers")
        arr = np.zeros(0, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("input must be one dimensional")
    return arr


@dataclass(frozen=True, init=False, eq=False)
class DictionaryGrammar:
    """Rule table; rule i defines symbol m+i, the last rule is primary.

    ``symbols`` holds all rule bodies laid end to end as one int64 array,
    and rule i (from 0) is ``symbols[offsets[i]:offsets[i + 1]]``.  Both
    arrays are read-only.  ``DictionaryGrammar(m, rules)`` takes the rules
    as sequences of ints; :meth:`from_arrays` takes the two arrays as they
    are, without copying them.  Both check the same rules and raise the same
    ``ValueError``: m is an integer of at least 1 (TypeError if not an
    integer), there is at least a primary rule, and every element of rule i
    lies in 1..m+i-1.  ``rules`` is the table as
    tuples of ints; it is built from the arrays the first time it is read
    (a grammar made from tuples keeps those).  Equal grammars have equal m
    and equal arrays, and hash alike.
    """

    m: int
    symbols: np.ndarray
    offsets: np.ndarray

    def __init__(self, m: int, rules) -> None:
        rules = tuple(tuple(map(int, rule)) for rule in rules)
        offsets = np.fromiter(accumulate(map(len, rules), initial=0), dtype=np.int64,
                              count=len(rules) + 1)
        try:
            symbols = np.fromiter(chain.from_iterable(rules), dtype=np.int64,
                                  count=int(offsets[-1]))
        except OverflowError:  # beyond int64: out of range, found by the check
            symbols = None
        object.__setattr__(self, "rules", rules)
        self._store(m, symbols, offsets)

    @classmethod
    def from_arrays(cls, m: int, symbols, offsets) -> "DictionaryGrammar":
        """Grammar whose rule i is ``symbols[offsets[i]:offsets[i + 1]]``.

        The grammar keeps read-only views of the arrays (converted to int64
        only if they are not already), so the caller must not write to them
        afterwards.  ``offsets`` must rise from 0 to ``symbols.size``.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if not (symbols.ndim == offsets.ndim == 1 and offsets.size
                and offsets[0] == 0 and offsets[-1] == symbols.size
                and (offsets[1:] >= offsets[:-1]).all()):
            raise ValueError("rule offsets must rise from 0 to the number of symbols")
        g = cls.__new__(cls)
        g._store(m, symbols, offsets)
        return g

    def _store(self, m: int, symbols: np.ndarray | None, offsets: np.ndarray) -> None:
        """Check the table and keep read-only views of its arrays.

        ``symbols`` is None when an element does not fit in int64.
        """
        m = operator.index(m)
        if m < 1:
            raise ValueError("alphabet size must be at least 1")
        if offsets.size < 2:
            raise ValueError("a grammar needs at least a primary rule")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "offsets", offsets.view())
        self.offsets.flags.writeable = False
        # every element is at least 1 and each nonempty rule's largest is below
        # its symbol; only a table that fails is searched, in reading order,
        # for the element to report
        full = np.flatnonzero(offsets[1:] > offsets[:-1])
        if symbols is None or full.size and (
            symbols.min() < 1 or (np.maximum.reduceat(symbols, offsets[full]) > m + full).any()
        ):
            object.__setattr__(self, "symbols", symbols)
            sym, e = next((sym, e) for sym, rule in enumerate(self.rules, start=m + 1)
                          for e in rule if not 1 <= e < sym)
            raise ValueError(
                f"rule for symbol {sym} references {e}; elements must be in 1..symbol-1"
            )
        object.__setattr__(self, "symbols", symbols.view())
        self.symbols.flags.writeable = False

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        flat = self.symbols.tolist()
        bounds = self.offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DictionaryGrammar):
            return NotImplemented
        return (self.m == other.m and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.symbols, other.symbols))

    def __hash__(self) -> int:
        return hash((self.m, self.offsets.tobytes(), self.symbols.tobytes()))

    @property
    def num_rules(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def _block_shape(self) -> tuple[int, int, int] | None:
        """(k, head_len, tail_len) of the block shape the grammar fits, or None.

        k is the length of the first rule, and the runs are the terminals
        before the first and after the last reference; a primary of
        terminals alone gets the longest head below k.  A grammar of one rule
        is its primary, which can cite no rule: all head, with k = 0.  It is
        inferred on the first read, and :func:`is_block_shaped` and
        :func:`expand` both read it.
        """
        prim = self.symbols[self.offsets[-2] :]
        if self.num_rules == 1:
            return 0, prim.size, 0
        k = int(self.offsets[1])
        refs = np.flatnonzero(prim > self.m)
        if refs.size:
            head, tail = int(refs[0]), prim.size - 1 - int(refs[-1])
        else:
            head = min(prim.size, k - 1)
            tail = prim.size - head
        return None if _shape_error(self, k, head, tail) else (k, head, tail)


@dataclass(frozen=True)
class BlockGrammar:
    """Dictionary grammar whose secondary rules are all terminal k-blocks.

    The primary rule is ``head_len`` terminals, then rule references, then
    ``tail_len`` terminals, with both runs shorter than the block length.
    The shape is checked on the arrays of ``base``.
    """

    base: DictionaryGrammar
    k: int
    head_len: int
    tail_len: int

    def __post_init__(self) -> None:
        error = _shape_error(self.base, self.k, self.head_len, self.tail_len)
        if error:
            raise ValueError(error)


def _shape_error(g: DictionaryGrammar, k: int, head_len: int, tail_len: int) -> str | None:
    """Why ``g`` is not a block grammar with these parameters, or None if it is."""
    m = g.m
    if k < 1:
        return "block length must be >= 1"
    if not (0 <= head_len < k and 0 <= tail_len < k):
        return "terminal runs must be shorter than the block length"
    secondary = g.symbols[: g.offsets[-2]]
    bad = g.offsets[1:-1] - g.offsets[:-2] != k
    # the rule of each nonterminal: the last one starting at or before it
    bad[np.searchsorted(g.offsets, np.flatnonzero(secondary > m), side="right") - 1] = True
    if bad.any():
        return f"secondary rule {int(bad.argmax()) + 1} is not a terminal {k}-block"
    prim = g.symbols[g.offsets[-2] :]
    if prim.size < head_len + tail_len:
        return "primary rule shorter than its terminal runs"
    head = prim[:head_len]
    tail = prim[prim.size - tail_len :]
    mid = prim[head_len : prim.size - tail_len]
    if head.size and head.max() > m:
        return "head run contains a nonterminal"
    if tail.size and tail.max() > m:
        return "tail run contains a nonterminal"
    if mid.size and mid.min() <= m:
        return "terminal inside the reference run"
    return None


def is_block_shaped(g: DictionaryGrammar) -> bool:
    """True if ``g`` is a block grammar (or a bare terminal primary).

    A block grammar is terminal k-blocks, then a primary rule of a head run,
    references and a tail run, each run shorter than k.
    """
    return g._block_shape is not None


def expand(g: DictionaryGrammar, max_len: int | None = None) -> np.ndarray:
    """Terminal string of the block grammar ``g``: head, cited blocks, tail.

    The length, head + references * k + tail, is known before anything is
    built, so ``max_len`` refuses a longer output with
    :class:`ExpansionLimitError`.  The cited k-blocks are gathered straight
    into the output.  Raises ValueError when ``g`` is not block shaped.
    """
    if g._block_shape is None:
        raise ValueError("grammar is not block shaped")
    k, head, tail = g._block_shape
    prim = g.symbols[g.offsets[-2] :]
    refs = prim[head : prim.size - tail]
    total = head + refs.size * k + tail
    if max_len is not None and total > max_len:
        raise ExpansionLimitError(f"expansion has {total} terminals (limit {max_len})")
    dtype = symbol_dtype(g.m)
    out = np.empty(total, dtype=dtype)
    out[:head] = prim[:head]
    blocks = g.symbols[: g.offsets[-2]].astype(dtype).reshape(g.num_rules - 1, k)
    # every reference names one of the blocks (it is above m and below the
    # primary's symbol), so "clip" clips nothing; unlike "raise" it writes
    # into the output without a buffer
    np.take(blocks, refs - (g.m + 1), axis=0, mode="clip",
            out=out[head : total - tail].reshape(refs.size, k))
    out[total - tail :] = prim[prim.size - tail :]
    return out


def _pack(values: np.ndarray, widths: np.ndarray) -> BitString:
    """Concatenate codewords (uint64 ``values`` of 1..64 uint8 ``widths`` bits), MSB first.

    Each codeword, moved to the top of a 64-bit word, lands in at most two
    words of the output: shifted down to its offset in the word where it
    starts, and the bits shifted out there in the next word.  Codewords
    never overlap, so each word is the OR of its pieces.
    """
    ends = np.cumsum(widths, dtype=np.int64)
    total = int(ends[-1])
    starts = ends - widths
    word = starts >> 6
    offset = (starts & 63).astype(np.uint8)
    top = values << (64 - widths)
    out = np.zeros(total // 64 + 2, dtype=np.uint64)
    first = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
    out[word[first]] = np.bitwise_or.reduceat(top >> offset, first)
    over = np.flatnonzero(offset + widths > 64)
    out[word[over] + 1] |= top[over] << (64 - offset[over])
    return BitString.from_bytes(out.astype(">u8").tobytes(), total)


def encode_grammar(g: DictionaryGrammar) -> BitString:
    """Emit the grammar: each rule's symbols then 0, and a final -1.

    The codewords are computed for the whole grammar at once: symbols up to
    m get ``fixed_len`` bits holding n + 1, and a symbol m + j gets ``10``
    followed by the Elias delta code of j, read from tables of the codeword
    and its length over j = 1..``num_rules``.  The result equals
    ``encode_symbol`` under ``SymbolCode(g.m)`` applied symbol by symbol,
    bit for bit.
    """
    m = g.m
    syms = np.append(np.insert(g.symbols, g.offsets[1:], 0), -1)
    # m + j is 10, ell zeros, the ell + 1 bits of nbits and the nbits - 1 low
    # bits of j: a head that depends only on the length, plus j
    ref_widths = _rank_length_table(g.num_rules)
    ref_values = _DELTA_HEADS[ref_widths] + np.arange(1, g.num_rules + 1, dtype=np.uint64)
    fixed = syms <= m
    ref = np.maximum(syms - (m + 1), 0)  # 0 for the fixed codewords
    values = np.where(fixed, (syms + 1).astype(np.uint64), ref_values[ref])
    widths = np.where(fixed, np.uint8(SymbolCode(m).fixed_len), ref_widths[ref])
    return _pack(values, widths)


def grammar_code_length(g: DictionaryGrammar) -> int:
    """Exact bit length of :func:`encode_grammar` without building bits.

    Every terminal, separator and the terminator take ``fixed_len`` bits, and
    a rule reference m + j the ``rank_length(j)`` bits of its delta code.
    """
    refs = g.symbols[g.symbols > g.m] - g.m  # each below num_rules
    fixed = g.symbols.size - refs.size + g.num_rules + 1
    return fixed * SymbolCode(g.m).fixed_len + int(_rank_length_table(g.num_rules)[refs - 1].sum())


# the most fixed-width codewords per chunk of the parse in decode_grammar
# (fewer below 2**14 of them, see _parse), and chunks per slice where the
# chains' starts are read off their steps
_CHUNK_CODEWORDS = 128
_SLICE_CHUNKS = 1024


def _windows(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The 64 bits from each bit position ``pos`` on, MSB first, as uint64.

    ``words`` is the payload as 64-bit words, most significant bit first,
    with a zero word after every ``pos >> 6``.
    """
    q = pos >> 6
    shift = (pos & 63).astype(np.uint64)
    return (words[q] << shift) | ((words[q + 1] >> np.uint64(1)) >> (np.uint64(63) - shift))


def _walk_from(data: bytes, steps: bytes, pos: int, stop: int, out: array) -> tuple[int, bool]:
    """Walk the codewords from bit ``pos`` while below ``stop``, one at a time.

    Appends each start to ``out`` and returns the position the walk reached,
    with True if it stopped there because no codeword can start at it.
    """
    append = out.append
    while pos < stop:
        append(pos)
        q = pos >> 3
        step = steps[((data[q] << 16 | data[q + 1] << 8 | data[q + 2]) >> (8 - (pos & 7))) & 0xFFFF]
        if not step:
            return pos, True
        pos += step
    return pos, False


@cache  # fl is at most 34, so at most 32 entries
def _step_tables(fl: int) -> tuple[np.ndarray, bytes, np.ndarray]:
    """Codeword length by the 16 bits at its start, 0 where none can start.

    A window opening with ``0`` is a fixed codeword of ``fl`` bits, and one
    opening with ``1`` is looked up in the delta table.  Returned read-only,
    as an array and as bytes, and with every 0 raised to 1: a chain's step,
    which slides one bit where no codeword starts.
    """
    table = _DELTA_WINDOW.copy()
    table[: 1 << 15] = fl
    slide = np.maximum(table, 1)
    table.flags.writeable = slide.flags.writeable = False
    return table, table.tobytes(), slide


def _parse(words: np.ndarray, data: bytes, nbits: int, fl: int) -> tuple[np.ndarray, int]:
    """Codeword starts from bit 0 on, and the position after the last one.

    Returns the starts below ``nbits``.  The position is above ``nbits`` when
    the last codeword runs past the end, and is ``nbits + 1`` when no
    codeword can start at the last start, where the parse stops.  ``data``
    is the payload and ``words`` the same bytes as 64-bit words, both with
    at least 32 zero bytes after the payload.

    With N = ``nbits // fl``, the payload is cut into chunks of about
    sqrt(N) fixed-width codewords, and at most ``_CHUNK_CODEWORDS``, so that
    a short payload takes about as many lockstep steps as it has chains.  A
    speculative chain is walked from every chunk start, all chunks in
    lockstep, each codeword's length read from the 16 bits at its start;
    where no codeword can start, the chain slides one bit.  Chunk 0's chain
    starts at bit 0, so it is the parse.  The parse enters each later chunk
    where it left the chunk before, which is the chain's exit from that
    chunk if it met that chain.  From each such entry a second lockstep walk
    runs until it lands on a codeword start of its chunk's chain, from where
    the two agree: a prefix code resynchronizes within a few codewords
    (Klein & Wiseman 2003).  Where a walk leaves its chunk without meeting
    the chain, anywhere but at the exit, the entries of the chunks after it
    are wrong, and the parse goes on one codeword at a time until it leaves
    a chunk at that chunk's exit.  The parse stops at the first place where
    no codeword can start: where a walk stops, or where a chain that the
    parse met slides.  Once chain 0 slides, the lockstep ends: the parse
    stops there, whatever the other chains do.  The secondary rules of a
    block grammar are fixed width and start at bit 0, so there every chain
    is the parse.
    """
    table, steps, slide = _step_tables(fl)
    size = min(_CHUNK_CODEWORDS, max(1, isqrt(nbits // fl))) * fl
    lo = np.arange(0, nbits, size, dtype=np.int64)
    hi = np.append(lo[1:], nbits)
    n = lo.size
    if not n:
        return lo, 0

    # every chain's steps, one row per lockstep step (0 once it has left its
    # chunk, 1 where it slides, as no codeword is shorter than 3 bits), where
    # each chain leaves, and where it last slid (below its chunk if never)
    exit_, slid = lo.copy(), lo - 1
    rows = []
    while True:
        step = slide[_windows(words, exit_) >> np.uint64(48)]
        step[exit_ >= hi] = 0
        if not step.any():
            break
        rows.append(step)
        slid = np.where(step == 1, exit_, slid)
        exit_ = exit_ + step
        if step[0] == 1:  # chain 0, the parse, slid: the parse stops there
            break
    # each chain's codeword starts, chunk after chunk, so ascending; a slice
    # of chains at a time, so that only the rows take a byte per step
    counts = np.zeros(n, np.int64)
    chain = []
    for c in range(0, n, _SLICE_CHUNKS):
        cut = slice(c, c + _SLICE_CHUNKS)
        piece = np.stack([row[cut] for row in rows])
        place = np.cumsum(piece, axis=0, dtype=np.uint16)
        place -= piece
        taken = piece > 1
        counts[cut] = taken.sum(axis=0)
        chain.append(place.T[taken.T] + np.repeat(lo[cut], counts[cut]))
    del rows, piece, place, taken
    chain = np.concatenate(chain)

    # meet[c]: where the walk from chunk c's entry lands on the chain, hi[c]
    # if it does not, and 0 for chunk 0, whose chain is the parse; out[c]:
    # where the parse leaves chunk c, -1 if it stops in it
    meet = hi.copy()
    meet[0] = 0
    out = exit_.copy()
    walked, walked_in = [lo[:0]], [lo[:0]]  # the walks' starts before they meet
    look = np.append(chain, -1)  # a place after the last that no walk lands on
    cid = np.arange(1, n)
    at = exit_[:-1]
    while cid.size:
        # a walk that has left its chunk may land on the next chunk's chain:
        # its meet is then past hi and does not count
        left = at >= hi[cid]
        met = look[np.searchsorted(chain, at)] == at
        meet[cid[met]] = at[met]
        out[cid[left]] = at[left]
        go = ~(met | left)
        cid, at = cid[go], at[go]
        walked.append(at)
        walked_in.append(cid)
        step = table[_windows(words, at) >> np.uint64(48)]
        out[cid[step == 0]] = -1
        go = step > 0
        cid, at = cid[go], at[go] + step[go]
    del look

    # one codeword at a time from wherever a chunk is left off its exit, and
    # from the meeting to the slide in a chunk whose chain slides at or after
    # it (chunk 0 meets its chain at bit 0)
    later = array("q")  # 8 bytes a start, where a list holds an int object
    skip = np.zeros(n, bool)  # chunks walked here, or past where the parse stops
    end = int(out[-1])
    ahead = 0
    for c in np.flatnonzero((out != exit_) | (slid >= meet)).tolist():
        if c < ahead:
            continue
        if slid[c] >= meet[c]:  # the parse follows the chain to the slide
            _walk_from(data, steps, int(meet[c]), int(hi[c]), later)
            meet[c], out[c] = hi[c], -1
        at, d, stopped = int(out[c]), c, out[c] < 0
        while not stopped and d < n - 1 and at != exit_[d]:
            d += 1
            at, stopped = _walk_from(data, steps, at, int(hi[d]), later)
        skip[c + 1 : d + 1] = True
        ahead = d + 1
        if stopped:
            skip[d + 1 :] = True
            end = nbits + 1
            break
        if d == n - 1:
            end = at

    chain = chain[chain >= np.repeat(np.where(skip, hi, meet), counts)]
    walked = np.concatenate(walked)
    extra = np.concatenate((walked[~skip[np.concatenate(walked_in)]], np.frombuffer(later, np.int64)))
    extra.sort()
    return np.insert(chain, np.searchsorted(chain, extra), extra), end


def _raise_codeword_error(code: SymbolCode, data: bytes, nbits: int, pos: int) -> None:
    """Raise the error ``decode_symbol`` raises on the codeword at bit ``pos``."""
    reader = BitReader(BitString.from_bytes(data[pos >> 3 :], nbits - (pos & ~7)))
    reader.read_bits(pos & 7)
    decode_symbol(code, reader)
    raise AssertionError(f"no codeword error at bit {pos}")


def decode_grammar(code: SymbolCode, bits: BitString) -> DictionaryGrammar:
    """Inverse of :func:`encode_grammar`; validates structure while reading.

    The codeword starts come from :func:`_parse`, whose chunked lockstep
    walks look each codeword's length up from the 16 bits at its start
    (fixed width after ``0``, the Elias delta length after ``10``).  Then
    one 64-bit window is read at every start: a fixed codeword is its top
    ``fixed_len`` bits, and a delta codeword, whose length is the distance
    to the next start, is a head that depends only on that length plus j; a
    second window is read only for a codeword longer than 64 bits.  The
    rules are split at the 0 separators, and the reference check (every
    element below the symbol its rule defines) is one array comparison.

    The errors are those of reading the payload codeword by codeword with
    ``decode_symbol``, in reading order: :class:`TruncationError` when the
    bits end inside a codeword or before the terminator, and
    :class:`CorruptionError` for an unassigned codeword (``11``, a fixed
    value above m + 1, a delta code with nbits > 63), a reference to the
    rule's own or a later symbol, a terminator inside a rule, a grammar
    with no rules, or bits after the terminator.
    """
    nbits = len(bits)
    data = bits.to_bytes()
    m = code.m
    fl = code.fixed_len
    data += bytes(-len(data) % 8 + 32)
    words = np.frombuffer(data, dtype=">u8").astype(np.uint64)
    starts, end = _parse(words, data, nbits, fl)
    if end != nbits:
        bad_at = int(starts[-1])  # this codeword is cut off or unassigned
        starts = starts[:-1]
    else:
        bad_at = nbits  # reading one more codeword runs out of bits

    # the parse ends a chain at a terminator only by chance: find the first
    # terminator (value 0) or unassigned fixed value (above m + 1)
    window = _windows(words, starts)
    value = (window >> np.uint64(64 - fl)).astype(np.int64)  # n + 1 for fixed codewords
    fixed = value < 1 << (fl - 1)
    halts = np.flatnonzero(fixed & ((value == 0) | (value > m + 1)))
    stop = int(halts[0]) if halts.size else starts.size
    sep = fixed[:stop] & (value[:stop] == 1)
    # a delta codeword is its length's head plus j; the lengths are the
    # distances between the starts, and only a codeword longer than its 64-bit
    # window needs a second window for the low bits of j
    delta = np.flatnonzero(~fixed[:stop])
    width = np.diff(starts, append=bad_at)[delta]
    j = ((window[delta] >> (64 - width).astype(np.uint64)) - _DELTA_HEADS[width]).astype(np.int64)
    wide = np.flatnonzero(width > 64)  # j >= 2**52, read again here
    low = _LOW_BITS[width[wide]]
    tail = _windows(words, starts[delta[wide]] + width[wide] - low.astype(np.int64))
    j[wide] = (np.uint64(1) << low | tail >> (np.uint64(64) - low)).astype(np.int64)
    # an element of the rule after s separators must be below m + s + 1
    forward = np.flatnonzero(j > np.cumsum(sep)[delta])
    if forward.size:
        raise CorruptionError(
            f"rule element {m + int(j[forward[0]])} references its own or a later symbol"
        )
    if stop == starts.size:
        _raise_codeword_error(code, data, nbits, bad_at)
    if value[stop]:
        _raise_codeword_error(code, data, nbits, int(starts[stop]))
    if stop and not sep[-1]:
        raise CorruptionError("grammar terminator inside a rule")
    if not stop:
        raise CorruptionError("grammar has no rules")
    if int(starts[stop]) + fl != nbits:
        raise CorruptionError("trailing bits after the grammar terminator")

    symbols = value[:stop] - 1
    symbols[delta] = m + j
    # rule i ends at the i-th separator, after all but i of the codewords before it
    ends = np.flatnonzero(sep)
    offsets = np.zeros(ends.size + 1, dtype=np.int64)
    offsets[1:] = ends - np.arange(ends.size)
    return DictionaryGrammar.from_arrays(m, symbols[~sep], offsets)
