"""Search for the cheapest block grammar and the binary code built on it.

For every viable block length k and phase l the input is parsed into a head
of l terminals, full k-blocks, and a tail of the leftover terminals.  Each
distinct block becomes a dictionary rule and rule identifiers are handed out
by descending block count (frequent blocks get the short codewords, which is
optimal because codeword lengths are nondecreasing).  The parse cost is
counted exactly in bits of the final emission; the bare terminal grammar is
always a candidate, so the result is the global minimum over all block
grammars producing the input.

One suffix index of the input, built once, answers every question the
sweep over (k, l) asks: a suffix array by prefix doubling and the longest
common prefix (LCP) of each pair of neighbouring suffixes.  The doubling
starts from 64-bit words that pack the first w symbols of every suffix, so
one sort of the words replaces the first log2 w rounds; later rounds
re-sort only the suffixes still tied with another, and the LCP below w is
read off the highest bit in which two words differ.

* A parse can only beat the terminal grammar if some block repeats, so k
  runs up to the longest repeated substring, the largest LCP.
* The k-gram at position i occurs twice or more exactly when the suffix at i
  shares k symbols with a neighbour in sorted order.  Positions whose k-gram
  occurs once contribute pairwise-distinct singleton blocks, which yields a
  per-phase lower bound on the parse cost; a phase is counted only when its
  bound is below the best cost so far.
* The positions are sorted once, with a radix sort, by their reach: the
  longest prefix of their suffix that occurs twice, clipped above the
  longest block length examined.  For each k the positions whose k-gram
  repeats are then one end of that order.  Their exact count prices the
  whole block length before any pass over the input, and their number per
  phase is binned mod k from whichever end of the order is smaller.
* Cutting the sorted suffixes wherever the LCP drops below k gives every
  k-gram a class ID, equal for equal k-grams and ascending in their order,
  so the block counts of a phase come from sorting the places of its
  blocks in suffix order.
* A block length is skipped outright when even one secondary rule would
  already cost more than the best grammar found so far.

Every bound is exact or a true lower bound, so pruning never changes the
result.  The search itself builds no grammar: it gathers the class IDs of
the winning parse once, after the sweep, and the result builds its grammar
from them when it is first read.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bits import BitString
from .codes import SymbolCode, rank_length, rank_lengths
from .grammar import (
    BlockGrammar,
    DictionaryGrammar,
    decode_grammar,
    encode_grammar,
    expand,
    is_block_shaped,
    symbol_dtype,
)

class NonBlockGrammarWarning(UserWarning):
    """Decoded payload is a valid dictionary grammar but not block shaped."""


@dataclass(frozen=True)
class RankedBlockTable:
    """Distinct blocks of one parse with counts, most frequent first.

    Ties on the count are broken by ascending block value so the table is a
    deterministic function of the parse.
    """

    entries: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        entries = tuple((tuple(b), int(c)) for b, c in self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for i, (block, count) in enumerate(entries):
            if count < 1:
                raise ValueError("block counts must be positive")
            if block in seen:
                raise ValueError("blocks must be distinct")
            seen.add(block)
            if len(block) != len(entries[0][0]):
                raise ValueError("blocks must share one length")
            if i:
                prev_block, prev_count = entries[i - 1]
                if count > prev_count or (count == prev_count and block < prev_block):
                    raise ValueError(
                        "entries must be ranked by descending count, ties by block"
                    )

    @classmethod
    def from_parse(cls, u, k: int, l: int) -> "RankedBlockTable":
        """Table for the parse of ``u`` at block length ``k`` and phase ``l``."""
        u = list(u)
        if k < 1 or l < 0 or l + k > len(u):
            raise ValueError("parse needs at least one full block")
        p = (len(u) - l) // k
        counts = Counter(tuple(u[l + i * k : l + (i + 1) * k]) for i in range(p))
        ranked = sorted(counts.items(), key=lambda bc: (-bc[1], bc[0]))
        return cls(tuple(ranked))

    @property
    def num_blocks(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)


@dataclass(frozen=True)
class TransformResult:
    """Winning parse plus the headline statistics of the search.

    The search does not build the grammar.  ``grammar`` and ``dictionary``
    build it from the winning parse the first time either is read, and keep
    it; callers that read only the statistics, such as the sweep and the MI
    bound, never pay for it.  The result keeps a copy of the input symbols
    and the class IDs of the parse's blocks to build it from.
    """

    code_bits: int
    num_rules: int
    block_len: int  # 0 for the bare terminal grammar
    shift: int
    m: int
    _symbols: np.ndarray = field(repr=False, compare=False)
    _block_ids: np.ndarray | None = field(repr=False, compare=False)

    @cached_property
    def grammar(self) -> BlockGrammar | DictionaryGrammar:
        if self._block_ids is None:
            arr = self._symbols
            return DictionaryGrammar.from_arrays(self.m, arr.astype(np.int64), [0, arr.size])
        return _build_block_grammar(self._symbols, self.m, self.block_len, self.shift,
                                    self._block_ids)

    @property
    def dictionary(self) -> DictionaryGrammar:
        g = self.grammar
        return g.base if isinstance(g, BlockGrammar) else g


def block_cost(code: SymbolCode, table: RankedBlockTable, k: int, l: int, tail: int) -> int:
    """Exact emission size in bits of the ranked grammar for one parse.

    ``l`` and ``tail`` are the head/tail terminal run lengths; with ``p``
    parsed blocks the string length is ``l + p*k + tail``.
    """
    fl = code.fixed_len
    if k < 1 or l < 0 or tail < 0:
        raise ValueError("invalid parse geometry")
    if table.entries:
        if len(table.entries[0][0]) != k:
            raise ValueError("table blocks do not have length k")
        if l >= k or tail >= k:
            raise ValueError("terminal runs must be shorter than the block length")
    total = table.num_blocks * (k + 1) * fl + (l + tail + 2) * fl
    for rank, (_, count) in enumerate(table.entries, start=1):
        total += count * rank_length(rank)
    return total


def _as_symbols(u, m: int) -> np.ndarray:
    if isinstance(u, (bytes, bytearray, memoryview)):
        arr = np.frombuffer(bytes(u), dtype=np.uint8)
    else:
        arr = np.asarray(u)
        if arr.size == 0:
            arr = np.zeros(0, dtype=np.int64)
        if arr.dtype.kind not in "iu":
            raise ValueError("symbols must be integers")
        arr = arr.astype(np.int64, copy=False)
    if arr.ndim != 1:
        raise ValueError("input must be one dimensional")
    if arr.size and (int(arr.min()) < 1 or int(arr.max()) > m):
        raise ValueError(f"symbols must lie in 1..{m}")
    return arr.astype(symbol_dtype(m), copy=False)


def _rank_length_table(jmax: int) -> np.ndarray:
    """Vector of open-class codeword lengths for offsets 1..jmax.

    The length is constant on each [2**t, 2**(t+1)), so the table is one run
    of equal lengths per t.
    """
    jmax = max(jmax, 0)
    starts = 1 << np.arange(jmax.bit_length())
    return np.repeat(rank_lengths(starts), np.minimum(starts, jmax + 1 - starts))


def _packed_words(arr: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The w-symbol prefix of every suffix of ``arr`` packed into one word.

    ``b`` is the bit length of the largest symbol and ``w`` the largest power
    of two with ``w * b <= 64``.  ``words[i]`` holds symbols i..i+w-1, the
    first one highest and 0 past the end, so words order as their prefixes
    do; ``words[n] = 0`` stands for the empty suffix.  Returns
    ``(words, w, b)``.
    """
    n = arr.size
    b = int(arr.max()).bit_length()
    w = 1 << ((64 // b).bit_length() - 1)
    words = np.zeros(n + 1, np.uint64)
    words[:n] = arr
    span = 1
    while span < w:  # words[i] packs 2 * span symbols after this pass
        packed = words << (span * b)
        packed[: max(n + 1 - span, 0)] |= words[span:]
        words = packed
        span *= 2
    return words, w, b


def _shared_symbols(x: np.ndarray, y: np.ndarray, w: int, b: int) -> np.ndarray:
    """How many leading symbols the packed words ``x`` and ``y`` share, w if equal.

    Read off the highest set bit of ``x ^ y``.  Only 32-bit halves are
    converted to float, which holds them without rounding, so the bit
    position is exact.
    """
    diff = x ^ y
    half = diff.astype(np.uint32)
    diff >>= 32
    top = diff > 0
    high = diff.astype(np.uint32)
    del diff  # the halves take half its memory
    np.copyto(half, high, where=top)
    del high
    bits = np.frexp(half)[1]
    bits[top] += 32
    return (w * b - bits) // b


def _run_heads(*keys: np.ndarray) -> np.ndarray:
    """Where a run of equal sorted key tuples starts, with one more True at the end."""
    head = np.empty(keys[0].size + 1, dtype=bool)
    head[0] = head[-1] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=head[1:-1])
    for key in keys[1:]:
        head[1:-1] |= key[1:] != key[:-1]
    return head


def _regroup(rank: np.ndarray, suffixes: np.ndarray, slots: np.ndarray,
             head: np.ndarray) -> np.ndarray:
    """Give ``suffixes`` the IDs of their groups; return the slots still tied.

    ``suffixes`` sit at the ascending ``slots`` in suffix order, and
    ``head`` (from :func:`_run_heads`) marks where a group starts.  A group's
    ID is the slot of its first suffix.  The slots still tied are those of
    groups with two or more suffixes.
    """
    ids = np.where(head[:-1], slots, 0)
    np.maximum.accumulate(ids, out=ids)
    rank[suffixes] = ids
    return slots[~(head[:-1] & head[1:])]


def _double(sa: np.ndarray, level: np.ndarray, rank: np.ndarray, slots: np.ndarray,
            h: int) -> np.ndarray:
    """One doubling round over the tied suffixes at ``slots``.

    Sorts them by their group ID in ``level``, then by the group ID h symbols
    on, writes their new group IDs into ``rank`` and returns the slots still
    tied.
    """
    suffixes = sa[slots]
    key = level[suffixes].astype(np.int64)
    key *= level.size
    key += level[suffixes + h]
    suffixes = suffixes[np.argsort(key)]
    del key  # regrouping gathers the IDs again, in half the memory of the keys
    sa[slots] = suffixes
    return _regroup(rank, suffixes, slots, _run_heads(level[suffixes], level[suffixes + h]))


def _lift(levels: list, sa: np.ndarray, common: np.ndarray, words: np.ndarray,
          w: int, b: int) -> None:
    """Complete ``common`` for the neighbours that share a word.

    ``levels[j]`` holds the group IDs by the first w * 2**j symbols.  Binary
    lifting over them, top level first, counts the shared prefix in whole
    words, and the packed words give the rest.  The list is emptied as it
    goes, which frees each level after use.
    """
    pairs = common == w
    a, c = sa[:-1][pairs], sa[1:][pairs]
    lifted = np.zeros(a.size, sa.dtype)
    while levels:
        level = levels.pop()
        lifted[level[a + lifted] == level[c + lifted]] += w << len(levels)
    common[pairs] = lifted + _shared_symbols(words[a + lifted], words[c + lifted], w, b)


def _suffix_index(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix ranks ``rank`` and neighbour LCP array ``lcp`` of ``arr``.

    ``rank[i]`` is the place of the suffix starting at i in sorted order (the
    inverse suffix array), and ``lcp[r]`` is the length of the longest common
    prefix of the suffixes at places r - 1 and r, with ``lcp[0] = 0``.

    The suffixes are sorted by prefix doubling (Manber & Myers 1993) that
    starts from packed words (:func:`_packed_words`): one argsort of the words
    ranks every suffix by its first w symbols, which stands in for the first
    log2 w doubling rounds.  Each later round doubles the prefix length h and
    re-sorts only the suffixes whose group still has two or more members
    (Larsson & Sadakane 2007), by the pair of group IDs at i and i + h.  A
    group's ID is the slot of its first suffix, so equal IDs at a level mean
    equal prefixes and the IDs ascend in prefix order.  The rounds stop once
    every group is a single suffix.

    The LCP is summed by binary lifting over the kept ID arrays, top level
    first: equal IDs at level j mean w * 2**j equal symbols.  Only neighbours
    that share a word need lifting.  The remainder below w is the number of
    leading symbols two words share, read off the highest set bit of their
    XOR.  When the word sort already separates every suffix, that one pass
    is the whole LCP.
    """
    n = arr.size
    dtype = np.int32 if n < 2**31 else np.int64
    if n == 0:
        return np.zeros(0, dtype), np.zeros(0, dtype)
    words, w, b = _packed_words(arr)
    sa = np.argsort(words[:n]).astype(dtype)
    sorted_words = words[sa]
    # exact for neighbours in different word groups, w within one; rounds
    # only reorder suffixes inside a group, so this stays true
    common = _shared_symbols(sorted_words[:-1], sorted_words[1:], w, b).astype(dtype)
    rank = np.empty(n + 1, dtype)
    rank[n] = -1  # the empty suffix ranks first
    tied = _regroup(rank, sa, np.arange(n, dtype=dtype), _run_heads(sorted_words))
    del sorted_words
    levels = []  # level j: group IDs by the first w * 2**j symbols
    while tied.size:
        levels.append(rank)
        rank = rank.copy()
        tied = _double(sa, levels[-1], rank, tied, w << (len(levels) - 1))
    if levels:
        _lift(levels, sa, common, words, w, b)
    return rank[:n], np.concatenate((np.zeros(1, dtype), common))


def _repeat_reach(rank: np.ndarray, lcp: np.ndarray) -> np.ndarray:
    """Per start position, the longest prefix of its suffix that occurs twice.

    It is the larger LCP of the suffix with its two neighbours in sorted
    order, so the k-gram at i occurs at least twice exactly when
    ``reach[i] >= k``.
    """
    return np.maximum(lcp, np.append(lcp[1:], 0))[rank]


def _reach_order(reach: np.ndarray, kcap: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ascending order of their reach, and where each reach starts.

    The reach is clipped to ``kcap + 1``, which keeps every k <= kcap apart,
    and stored in the narrowest unsigned type that holds that, so the stable
    sort is a radix sort.  Returns ``(order, below)``: ``below[k - 1]``
    positions have reach < k, so ``order[below[k - 1]:]`` are the positions
    whose k-gram occurs twice or more.
    """
    dtype = np.uint8 if kcap < 255 else np.uint16 if kcap < 65535 else reach.dtype
    clipped = np.minimum(reach, kcap + 1).astype(dtype)
    order = np.argsort(clipped, kind="stable").astype(reach.dtype)
    below = np.cumsum(np.bincount(clipped, minlength=kcap + 2))
    return order, below


def _phase_duplicates(order: np.ndarray, edge: int, k: int) -> np.ndarray:
    """Per phase l < k, how many positions i = l (mod k) have reach >= k.

    ``order[edge:]`` are the positions with reach >= k (:func:`_reach_order`).
    The smaller of the two sides is binned mod k; when that is the side of
    reach < k, its counts are taken from the ceil((n - l) / k) positions of
    each phase.
    """
    n = order.size
    if n - edge <= edge:
        return np.bincount(order[edge:] % k, minlength=k)
    return (n - np.arange(k) + k - 1) // k - np.bincount(order[:edge] % k, minlength=k)


def _kgram_classes(lcp: np.ndarray, k: int) -> np.ndarray:
    """Class ID of the k-gram of each suffix, by its place in sorted order.

    Equal k-grams share an ID, and IDs ascend in the order of the k-grams;
    the k-gram at position i has the ID at place ``rank[i]``.  Suffixes
    shorter than k get IDs of their own.
    """
    return np.cumsum(lcp < k, dtype=lcp.dtype)


def _run_lengths(change: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values in a sorted array ``a``.

    ``change`` is ``a[1:] != a[:-1]``.
    """
    bounds = np.flatnonzero(np.concatenate(([True], change, [True])))
    return bounds[1:] - bounds[:-1]


def _price(fl: int, k: int, blocks: int, runs: int, refs: int) -> int:
    """Bits of a block grammar: ``blocks`` rules of k terminals, ``runs``
    terminals in the primary rule, and ``refs`` bits of rule references.

    Each rule ends in a separator, and the grammar in the terminator.
    """
    return (blocks * (k + 1) + runs + 2) * fl + refs


def _floor(fl: int, k: int, p: int, repeats: int, runs: int, cum_rank_len: np.ndarray) -> int:
    """Fewest bits of a parse of ``p`` blocks and ``runs`` terminals in which
    at most ``repeats`` blocks repeat an earlier block.

    At least ``s = p - repeats`` blocks are then distinct, so there are at
    least ``max(1, s)`` rules; they are singletons when ``repeats`` counts
    the places whose k-gram occurs twice or more.  Each singleton, like each
    distinct block, takes a rank of its own, so together they cost at least
    the s cheapest ranks, ``cum_rank_len[s]``, and every other reference at
    least the 3 bits of rank 1.
    """
    s = max(0, p - repeats)
    return _price(fl, k, max(1, s), runs, int(cum_rank_len[s]) + 3 * (p - s))


def _sweep(code: SymbolCode, rank: np.ndarray, lcp: np.ndarray, best: int,
           kmax: int | None):
    """Cost of the cheapest parse costing less than ``best``, and the parse.

    The parse is ``(k, l, distinct, ids)``: its block length, phase, number
    of distinct blocks and the k-gram class IDs of its blocks.  Returns
    ``(best, None)`` when no parse costs less.
    """
    n = lcp.size
    fl = code.fixed_len
    kcap = int(lcp.max(initial=0))  # the longest repeat: no longer block repeats
    if kmax is not None:
        kcap = min(kcap, kmax)
    if kcap < 1:
        return best, None
    order, below = _reach_order(_repeat_reach(rank, lcp), kcap)
    rank_len = _rank_length_table(n)
    cum_rank_len = np.concatenate(([0], np.cumsum(rank_len)))

    best_parse = None
    for k in range(1, kcap + 1):
        if (k + 1) * fl >= best:
            break
        p_hi = n // k
        edge = int(below[k - 1])
        dups = n - edge  # positions whose k-gram occurs twice or more

        # cheapest conceivable cost of any phase, whose block count is one
        # of these, given the duplicate count of the whole block length
        if all(_floor(fl, k, p, dups, n - p * k, cum_rank_len) >= best
               for p in {p_hi, max(p_hi - 1, 1)}):
            continue

        per_shift = _phase_duplicates(order, edge, k)

        classes = None
        for l in range(0, min(k, n - k + 1)):
            p = (n - l) // k
            runs = n - p * k
            if _floor(fl, k, p, int(per_shift[l]), runs, cum_rank_len) >= best:
                continue
            if classes is None:
                classes = _kgram_classes(lcp, k)
            # IDs ascend with the place, so sorting places sorts the IDs and
            # makes their gather sequential
            places = rank[l : l + p * k : k].copy()
            places.sort()
            ids = classes[places]
            change = ids[1:] != ids[:-1]
            distinct = 1 + int(np.count_nonzero(change))
            # all but the first block of each class repeat an earlier one
            if _floor(fl, k, p, p - distinct, runs, cum_rank_len) >= best:
                continue
            counts = _run_lengths(change)
            counts[::-1].sort()
            cost = _price(fl, k, distinct, runs, int(np.dot(counts, rank_len[:distinct])))
            if cost < best:
                best = cost
                best_parse = (k, l, distinct)
    if best_parse is None:
        return best, None
    k, l, distinct = best_parse
    p = (n - l) // k
    return best, (k, l, distinct, _kgram_classes(lcp, k)[rank[l : l + p * k : k]])


def _build_block_grammar(arr: np.ndarray, m: int, k: int, l: int, ids: np.ndarray):
    """Materialize the ranked grammar for the (k, l) parse of ``arr``.

    ``ids`` are the k-gram class IDs (:func:`_kgram_classes`) of the parse's
    blocks, which are below n + 1.  Blocks are ranked by descending count,
    ties by ascending block, as in :class:`RankedBlockTable`: the IDs ascend
    in block order, and a stable sort on the count keeps that order within a
    tie.
    """
    n = arr.size
    p = ids.size
    counts = np.bincount(ids)
    present = np.flatnonzero(counts)
    ranked = present[np.argsort(-counts[present], kind="stable")]
    d = ranked.size
    ref = np.zeros(counts.size, dtype=np.int64)  # the symbol of each ID's rule
    ref[ranked] = np.arange(m + 1, m + 1 + d)
    block_at = np.empty(counts.size, dtype=np.int64)  # one block with each ID
    block_at[ids] = np.arange(p)
    # the d blocks in rank order, then the primary: head, references, tail
    symbols = np.empty(d * k + n - p * k + p, dtype=np.int64)
    symbols[: d * k] = arr[l : l + p * k].reshape(p, k)[block_at[ranked]].ravel()
    primary = symbols[d * k :]
    primary[:l] = arr[:l]
    primary[l : l + p] = ref[ids]
    primary[l + p :] = arr[l + p * k :]
    offsets = np.append(np.arange(0, d * k + 1, k), symbols.size)
    g = DictionaryGrammar.from_arrays(m, symbols, offsets)
    return BlockGrammar(base=g, k=k, head_len=l, tail_len=n - l - p * k)


def minimal_block_transform(code: SymbolCode, u, *, kmax: int | None = None) -> TransformResult:
    """Cheapest block grammar producing ``u`` and its exact emission size.

    Ties between block lengths go to the smaller k, then the smaller phase;
    a tie with the terminal grammar keeps the terminal grammar.  ``kmax``
    caps the sweep (the result is then only an upper bound on the optimum).
    """
    arr = _as_symbols(u, code.m)
    n = arr.size
    if kmax is not None and kmax < 1:
        raise ValueError("kmax must be positive")
    rank, lcp = _suffix_index(arr)
    best, parse = _sweep(code, rank, lcp, _price(code.fixed_len, 0, 0, n, 0), kmax)
    k, l, distinct, ids = parse or (0, 0, 0, None)
    return TransformResult(code_bits=best, num_rules=distinct + 1, block_len=k, shift=l,
                           m=code.m, _symbols=arr.copy(), _block_ids=ids)


def encode(code: SymbolCode, u, *, kmax: int | None = None) -> BitString:
    """Binary code of ``u``: the emission of its cheapest block grammar."""
    # the result, with the copy of u it builds the grammar from, is freed
    # before the emission runs
    grammar = minimal_block_transform(code, u, kmax=kmax).dictionary
    return encode_grammar(code, grammar)


def decode(code: SymbolCode, bits: BitString, *, max_len: int | None = None) -> np.ndarray:
    """Inverse of :func:`encode`; returns the terminal string.

    Any valid dictionary grammar expands, so a payload that is not block
    shaped is still accepted, with a :class:`NonBlockGrammarWarning`.
    """
    g = decode_grammar(code, bits)
    if not is_block_shaped(g):
        warnings.warn(
            "decoded grammar is not block shaped; expanding anyway",
            NonBlockGrammarWarning,
            stacklevel=2,
        )
    return expand(g, g.primary_symbol, max_len=max_len)


def compress(u, m: int, *, kmax: int | None = None) -> bytes:
    """Frame-wrapped :func:`encode` for an alphabet of ``m`` symbols."""
    # imported at call time: the traced benchmark run patches bits.pack_frame
    # (TRACED in perfbench/workloads.py), which a top-level import would skip
    from .bits import pack_frame

    code = SymbolCode(m)
    return pack_frame(m, encode(code, u, kmax=kmax))


def decompress(data: bytes, *, max_len: int | None = None) -> tuple[np.ndarray, int]:
    """Inverse of :func:`compress`; returns (symbols, alphabet size)."""
    # imported at call time for the traced run's patch, as in compress
    from .bits import unpack_frame

    m, bits = unpack_frame(data)
    return decode(SymbolCode(m), bits, max_len=max_len), m
