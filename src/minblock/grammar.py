"""Dictionary grammars, their expansion, and their emission as bits.

A dictionary grammar over terminals {1..m} is an ordered list of rules; rule
``i`` (1-based) defines symbol ``m + i`` and may only reference strictly
smaller symbols, so expansion always terminates.  The last rule is the
primary rule; expanding its symbol produces the grammar's output string.

The grammar is serialized rule by rule with the code of
:mod:`minblock.codes`: each rule is the codewords of its symbols followed by
the separator 0, and the whole grammar ends with the terminator -1.

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

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .bits import BitReader, BitString, CorruptionError, ExpansionLimitError
from .codes import (
    SymbolCode,
    bit_lengths,
    decode_symbol,
    rank_length,
    rank_lengths,
)

Rule = tuple[int, ...]

# bits parsed per step of the codeword-length pass of the decoder
_CHUNK_BITS = 1 << 16

# expansion lengths are counted up to this cap; nothing longer fits in memory
_LENGTH_CAP = 1 << 62


def symbol_dtype(m: int):
    """Smallest unsigned dtype able to hold terminals 1..m (at most 2**32 - 1)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if m <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"alphabet size {m} is above 2**32 - 1")


@dataclass(frozen=True, init=False, eq=False)
class DictionaryGrammar:
    """Rule table; rule i defines symbol m+i, the last rule is primary.

    ``symbols`` holds all rule bodies laid end to end as one int64 array,
    and rule i (from 0) is ``symbols[offsets[i]:offsets[i + 1]]``.  Both
    arrays are read-only.  ``DictionaryGrammar(m, rules)`` takes the rules
    as sequences of ints; :meth:`from_arrays` takes the two arrays as they
    are, without copying them.  Both check the same rules and raise the same
    ``ValueError``: m is at least 1, there is at least a primary rule, and
    every element of rule i lies in 1..m+i-1.  ``rules`` is the table as
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
        m = int(m)
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

    @property
    def primary_symbol(self) -> int:
        return self.m + self.num_rules

    @property
    def primary(self) -> Rule:
        return tuple(self.symbols[self.offsets[-2] :].tolist())


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

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def num_rules(self) -> int:
        return self.base.num_rules


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
    """True if ``g`` fits the block shape (or is a bare terminal primary).

    k is the length of the first rule, and the runs are the terminals before
    the first and after the last reference; a primary of terminals alone
    gets the longest head below k.
    """
    if g.num_rules == 1:
        return True  # its only rule can cite no rule, so it is all terminals
    k = int(g.offsets[1])
    prim = g.symbols[g.offsets[-2] :]
    refs = np.flatnonzero(prim > g.m)
    if refs.size:
        head, tail = int(refs[0]), prim.size - 1 - int(refs[-1])
    else:
        head = min(prim.size, k - 1)
        tail = prim.size - head
    return _shape_error(g, k, head, tail) is None


def _rule_lengths(m: int, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Terminal count of the expansion of every rule, each capped at 2**62.

    A rule of terminals alone has its own length.  The rules that cite
    nonterminals (only the primary rule of a block grammar) are summed in
    rule order.
    """
    lengths = offsets[1:] - offsets[:-1]
    cites = np.zeros(flat.size + 1, dtype=np.int64)
    np.cumsum(flat > m, out=cites[1:])
    for i in np.flatnonzero(cites[offsets[1:]] - cites[offsets[:-1]]).tolist():
        body = flat[offsets[i] : offsets[i + 1]]
        part = lengths[body[body > m] - (m + 1)]
        # the int64 sum is exact unless the float sum says it may have wrapped
        if part.sum(dtype=np.float64) < _LENGTH_CAP:
            lengths[i] = min(body.size - part.size + int(part.sum()), _LENGTH_CAP)
        else:
            lengths[i] = _LENGTH_CAP
    return lengths


def _skip_unary(m: int, flat: np.ndarray, offsets: np.ndarray,
                r: int) -> tuple[np.ndarray, int]:
    """Cite what each one-element rule stands for instead of the rule itself.

    A rule of one element stands for that element, and any other rule for
    its own symbol.  Chains of one-element rules are followed by pointer
    doubling, so a chain of d rules takes about log2(d) array passes.
    Returns ``flat`` so rewritten (a copy) and the symbol ``r`` stands for.
    """
    unary = np.flatnonzero(offsets[1:] - offsets[:-1] == 1)
    if not unary.size:
        return flat, r
    alias = np.arange(m + 1, m + offsets.size, dtype=np.int64)
    alias[unary] = flat[offsets[unary]]
    while True:
        cited = alias > m
        step = alias.copy()
        step[cited] = alias[alias[cited] - (m + 1)]
        if np.array_equal(step, alias):
            break
        alias = step
    flat = flat.copy()
    cited = flat > m
    flat[cited] = alias[flat[cited] - (m + 1)]
    return flat, int(alias[r - m - 1])


def expand(g: DictionaryGrammar, r: int, max_len: int | None = None) -> np.ndarray:
    """Terminal string produced by symbol ``r`` (terminals map to themselves).

    The length of every rule's expansion is counted first, so that
    ``max_len`` refuses grammars whose expansion blows up (possible for
    hand-built or hostile rule tables; block grammars are linear) with
    :class:`ExpansionLimitError` before anything is built.  Then citations
    of rules that expand to nothing are dropped and chains of one-element
    rules are cut short, so that every rule still cited has at least two
    elements, each with a nonempty expansion.  The expansion tree is then
    walked one level per pass: each pass writes the symbols of the rules
    cited at that level to the output, where each one's expansion starts,
    and passes on the rules among them.  No pass holds more elements than
    the output has terminals, and all passes together fewer than twice as
    many; a block grammar takes two passes.  Raises ValueError when ``r``
    is not a symbol of ``g``.
    """
    if not 1 <= r <= g.primary_symbol:
        raise ValueError(f"symbol {r} out of range 1..{g.primary_symbol}")
    m = g.m
    dtype = symbol_dtype(m)
    if r <= m:
        return np.array([r], dtype=dtype)
    offsets = g.offsets[: r - m + 1]
    flat = g.symbols[: offsets[-1]]
    lengths = _rule_lengths(m, flat, offsets)
    total = int(lengths[-1])
    if max_len is not None and total > max_len:
        raise ExpansionLimitError(
            f"expansion of symbol {r} has {total} terminals (limit {max_len})"
        )
    out = np.empty(total, dtype=dtype)
    if not total:
        return out

    cited = flat > m
    size = np.ones(flat.size, dtype=np.int64)
    size[cited] = lengths[flat[cited] - (m + 1)]
    keep = size > 0
    if not keep.all():
        kept = np.zeros(flat.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        offsets = kept[offsets]
        flat, size = flat[keep], size[keep]
    flat, root = _skip_unary(m, flat, offsets, r)
    # where each element's expansion starts within the rules laid end to end;
    # the int64 sums wrap only past rules longer than the output, which no
    # rule reachable from r is, so the differences taken below are exact
    before = np.cumsum(size)
    before -= size
    del cited, keep, size, lengths

    if root <= m:
        out[0] = root
        return out
    sizes = offsets[1:] - offsets[:-1]
    rule = np.array([root - (m + 1)])
    at_rule = np.zeros(1, dtype=np.int64)
    while rule.size:
        n = sizes[rule]
        first = offsets[rule]
        pos = np.repeat(first - (np.cumsum(n) - n), n)
        pos += np.arange(pos.size)
        at = np.repeat(at_rule - before[first], n)
        at += before[pos]
        sym = flat[pos]
        del pos, first, n
        # a nonterminal's value is cast to garbage here, but the first
        # terminal of its expansion overwrites it in a later pass
        out[at] = sym
        cited = np.flatnonzero(sym > m)
        rule = sym[cited] - (m + 1)
        at_rule = at[cited]
        del at, sym, cited
    return out


def _pack(values: np.ndarray, widths: np.ndarray) -> BitString:
    """Concatenate codewords (uint64 ``values`` of 1..64 ``widths`` bits), MSB first.

    Each codeword lands in at most two 64-bit words of the output: the bits
    that fit in the word where it starts, and a spill into the next word.
    Codewords never overlap, so each word is the OR of its pieces.
    """
    ends = np.cumsum(widths)
    total = int(ends[-1])
    starts = ends - widths
    word = starts >> 6
    spill = (starts & 63) + widths - 64  # > 0: bits that go to word + 1
    out = np.zeros(total // 64 + 2, dtype=np.uint64)
    fits = spill <= 0
    head = np.empty_like(values)
    head[fits] = values[fits] << (-spill[fits]).astype(np.uint64)
    over = ~fits
    head[over] = values[over] >> spill[over].astype(np.uint64)
    first = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
    out[word[first]] = np.bitwise_or.reduceat(head, first)
    out[word[over] + 1] |= values[over] << (64 - spill[over]).astype(np.uint64)
    return BitString.from_bytes(out.astype(">u8").tobytes(), total)


def encode_grammar(code: SymbolCode, g: DictionaryGrammar) -> BitString:
    """Emit the grammar: each rule's symbols then 0, and a final -1.

    The codewords are computed for the whole grammar at once: symbols up to
    m get ``fixed_len`` bits holding n + 1, a symbol m + j gets ``10``
    followed by the Elias delta code of j, with its length in closed form.
    The result equals ``encode_symbol`` applied symbol by symbol, bit for
    bit.  Raises ValueError when ``code`` and ``g`` disagree on m.
    """
    if code.m != g.m:
        raise ValueError("code and grammar disagree on the alphabet size")
    m = code.m
    syms = np.append(np.insert(g.symbols, g.offsets[1:], 0), -1)
    values = (syms + 1).astype(np.uint64)
    widths = np.full(syms.size, code.fixed_len, dtype=np.int64)
    (delta,) = np.nonzero(syms > m)
    # m + j is 10, ell zeros, the ell + 1 bits of nbits, the nbits - 1 low bits of j
    j = syms[delta] - m
    nbits = bit_lengths(j)
    width = rank_lengths(j)
    low = (nbits - 1).astype(np.uint64)
    values[delta] = (
        (np.uint64(2) << (width - 2).astype(np.uint64))
        | (nbits.astype(np.uint64) << low)
        | (j.astype(np.uint64) ^ (np.uint64(1) << low))
    )
    widths[delta] = width
    return _pack(values, widths)


def grammar_code_length(code: SymbolCode, g: DictionaryGrammar) -> int:
    """Exact bit length of :func:`encode_grammar` without building bits.

    Every terminal, separator and the terminator take ``fixed_len`` bits, and
    a rule reference m + j the ``rank_length(j)`` bits of its delta code.
    """
    if code.m != g.m:
        raise ValueError("code and grammar disagree on the alphabet size")
    refs = g.symbols[g.symbols > g.m] - g.m
    fixed = g.symbols.size - refs.size + g.num_rules + 1
    return fixed * code.fixed_len + int(rank_lengths(refs).sum())


def _delta_lengths() -> np.ndarray:
    """Length of the ``10`` codeword opening a 16-bit window, by window value.

    ``10``, ell zeros, then the ell + 1 bits of nbits: this prefix fits in 13
    bits for every nbits <= 63 (ell <= 5).  Windows that open with ``0`` or
    ``11``, or with ``10`` and six or more zeros (so nbits > 63), are 0.
    """
    table = np.zeros(1 << 16, dtype=np.uint8)
    for nbits in range(1, 64):
        prefix_len = 2 * nbits.bit_length() + 1
        prefix = (0b10 << (prefix_len - 2)) | nbits
        lo = prefix << (16 - prefix_len)
        table[lo : lo + (1 << (16 - prefix_len))] = rank_length(1 << (nbits - 1))
    return table


_DELTA_LENGTHS = _delta_lengths()


def _codeword_lengths(buf: np.ndarray, nbits: int, fixed_len: int) -> bytearray:
    """Length of the codeword that would start at each bit, 0 where none can.

    ``buf`` is the payload with at least two zero bytes of padding.  Works
    through ``_CHUNK_BITS`` bits at a time to keep the 16-bit windows small;
    the result has one byte per bit, rounded up to whole payload bytes.
    """
    table = _DELTA_LENGTHS.copy()
    table[: 1 << 15] = fixed_len
    shifts = np.arange(8, dtype=np.uint32)
    nbytes = (nbits + 7) // 8
    lengths = bytearray(8 * nbytes)
    view = np.frombuffer(lengths, dtype=np.uint8)
    for a in range(0, nbytes, _CHUNK_BITS // 8):
        b = min(a + _CHUNK_BITS // 8, nbytes)
        b24 = (
            (buf[a:b].astype(np.uint32) << 16)
            | (buf[a + 1 : b + 1].astype(np.uint32) << 8)
            | buf[a + 2 : b + 2]
        )
        view[8 * a : 8 * b] = table[((b24[:, None] << shifts) >> 8) & 0xFFFF].ravel()
    return lengths


def _walk(lengths: bytearray, nbits: int) -> tuple[np.ndarray, int]:
    """Codeword starts from bit 0 on, one integer step per codeword.

    Returns the starts below ``nbits`` and the position after the last one;
    that position is above ``nbits`` when the last codeword runs past the
    end or cannot start a codeword at all (length 0).
    """
    starts = array("q")
    append = starts.append
    pos = 0
    while pos < nbits:
        append(pos)
        step = lengths[pos]
        if not step:
            pos = nbits + 1
            break
        pos += step
    return np.frombuffer(starts, dtype=np.int64), pos


def _windows(buf: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The 64 bits from each bit position ``pos`` on, MSB first, as uint64.

    ``buf`` must hold nine bytes from every ``pos >> 3`` on.
    """
    q = pos >> 3
    shift = (pos & 7).astype(np.uint64)
    words = np.lib.stride_tricks.sliding_window_view(buf, 8).view(">u8")[:, 0]
    return (words[q].astype(np.uint64) << shift) | (buf[q + 8] >> (8 - shift))


def _top(windows: np.ndarray, width) -> np.ndarray:
    """The first ``width`` (0..63) bits of each window, as int64."""
    shift = (63 - np.asarray(width)).astype(np.uint64)
    return ((windows >> np.uint64(1)) >> shift).astype(np.int64)


def _raise_codeword_error(code: SymbolCode, data: bytes, nbits: int, pos: int) -> None:
    """Raise the error ``decode_symbol`` raises on the codeword at bit ``pos``."""
    reader = BitReader(data[pos >> 3 :], nbits - (pos & ~7))
    reader.read_bits(pos & 7)
    decode_symbol(code, reader)
    raise AssertionError(f"no codeword error at bit {pos}")


def decode_grammar(code: SymbolCode, bits: BitString | BitReader) -> DictionaryGrammar:
    """Inverse of :func:`encode_grammar`; validates structure while reading.

    The payload is parsed in three array passes.  First the length of the
    codeword that would start at each bit position is looked up from the 16
    bits there (fixed width after ``0``, the Elias delta length after
    ``10``).  Then the chain of codeword starts is walked from bit 0 with one
    integer step per codeword.  Last, the symbols at the starts are gathered
    at once, the rules are split at the 0 separators, and the reference
    check (every element below the symbol its rule defines) is one array
    comparison.

    The errors are those of reading the payload codeword by codeword with
    ``decode_symbol``, in reading order: :class:`TruncationError` when the
    bits end inside a codeword or before the terminator, and
    :class:`CorruptionError` for an unassigned codeword (``11``, a fixed
    value above m + 1, a delta code with nbits > 63), a reference to the
    rule's own or a later symbol, a terminator inside a rule, a grammar
    with no rules, or bits after the terminator.  A ``BitReader`` is read
    to its end.
    """
    if isinstance(bits, BitReader):
        nbits = bits.remaining
        nbytes = (nbits + 7) // 8
        data = (bits.read_bits(nbits) << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
    else:
        nbits = len(bits)
        data = bits.to_bytes()
    m = code.m
    fl = code.fixed_len
    buf = np.frombuffer(data + bytes(9), dtype=np.uint8)
    starts, end = _walk(_codeword_lengths(buf, nbits, fl), nbits)
    if end != nbits:
        bad_at = int(starts[-1])  # this codeword is cut off or unassigned
        starts = starts[:-1]
    else:
        bad_at = nbits  # reading one more codeword runs out of bits

    # the walk ends a chain at a terminator only by chance: find the first
    # terminator (value 0) or unassigned fixed value (above m + 1)
    value = _top(_windows(buf, starts), fl)  # n + 1 for fixed codewords
    fixed = value < 1 << (fl - 1)
    halts = np.flatnonzero(fixed & ((value == 0) | (value > m + 1)))
    stop = int(halts[0]) if halts.size else starts.size
    sep = fixed[:stop] & (value[:stop] == 1)
    delta = starts[:stop][~fixed[:stop]]
    head = _windows(buf, delta) << np.uint64(2)  # after 10: ell zeros, nbits, low bits
    ell = 6 - bit_lengths(_top(head, 6))
    low = _top(head << ell.astype(np.uint64), ell + 1) - 1  # nbits - 1
    j = (1 << low) | _top(_windows(buf, delta + 3 + 2 * ell), low)
    # an element of the rule after s separators must be below m + s + 1
    before = (np.cumsum(sep) - sep)[~fixed[:stop]]
    forward = np.flatnonzero(j > before)
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
    symbols[~fixed[:stop]] = m + j
    # rule i ends at the i-th separator, after all but i of the codewords before it
    ends = np.flatnonzero(sep)
    offsets = np.zeros(ends.size + 1, dtype=np.int64)
    offsets[1:] = ends - np.arange(ends.size)
    return DictionaryGrammar.from_arrays(m, symbols[~sep], offsets)
