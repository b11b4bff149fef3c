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
* Equal k-grams are neighbours in sorted order, so the k-gram at position
  i also starts at the suffix sorted just before i exactly when their LCP,
  ``lcp[rank[i]]``, is k or more.  The positions below k are each the first
  of their k-gram class, so their blocks are pairwise distinct, which
  yields a per-phase lower bound on the parse cost; a phase is counted only
  when its bound is below the best cost so far.
* The positions are sorted once, with a radix sort, by that LCP, clipped
  above the longest block length examined.  For each k the positions whose
  k-gram is not the first of its class are then one end of that order.
  Their count prices the whole block length before any pass over the
  input, and their number per phase is binned mod k from whichever end of
  the order is smaller.
* A block of k <= w symbols is its own sort key: the top k symbols of the
  packed word at its start, which the index keeps.  Equal keys are equal
  blocks, so the block counts of a phase come from sorting its keys.
* Longer blocks are told apart by class IDs: cutting the sorted suffixes
  wherever the LCP drops below k gives every k-gram an ID, equal for equal
  k-grams and ascending in their order, so sorting the places of a phase's
  blocks in suffix order sorts their IDs.
* A block of phase l repeats an earlier block only if both start at places
  congruent mod k and share their k-gram, so a k-gram class of c members
  holds at most c - 1 repeats over all phases of k, and a class of two
  holds one only when its members lie a multiple of k apart.  These
  aligned-repeat caps, per block length and per phase, are built for the
  first block length above 32 that the first-of-class floor does not prune,
  and bound the floors from then on: an input with a long repeat then
  counts the phases of the few k that divide the repeat's distance, not
  every phase up to its length.
* A block length is skipped outright when even one secondary rule would
  already cost more than the best grammar found so far.

Every bound is exact or a true lower bound, so pruning never changes the
result.  The search itself builds no grammar: the result keeps the input
with its ranks and LCP, and only when its grammar is first read gathers the
class IDs of the winning parse's blocks and builds the grammar from them.

The sweep can search any range x[lo:hi] of the indexed string x, so one
index of u + v prices u, v and u + v for the pointwise mutual information,
and does so across calls: the index and the search of the last u + v are
held, so a call at another cut of the same string searches only its two
ranges (:func:`_split_transforms`).
The suffixes of a range keep their order among those of x, and the LCP of
two of them is the least LCP of x between their places (:func:`_range_index`,
built once per search).  That is the range's own index when the range runs
to the end of x.  A range that ends earlier may have a common prefix that
runs past its end, so its LCP is an upper bound, capped at the length of
each suffix.  Equal k-grams of the range are still neighbours among its
suffixes, so a position below k is still the first of its class, and the
floors stay lower bounds: block lengths above the range's true longest
repeat have only distinct blocks, which never beat the terminal grammar.
The aligned-repeat caps of such a range come from the same upper-bound LCP,
and only grow with it (:func:`_pair_caps`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import bits
from .bits import BitString, CorruptionError, _check_frame_alphabet
from .codes import SymbolCode, _rank_length_sum, _rank_length_table, rank_length
from .grammar import (
    BlockGrammar,
    DictionaryGrammar,
    _symbol_sequence,
    decode_grammar,
    encode_grammar,
    expand,
    is_block_shaped,
    symbol_dtype,
)


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
        # plain ints: numpy scalars are slow to slice into tuples and hash
        u = u.tolist() if isinstance(u, np.ndarray) else list(u)
        if k < 1 or l < 0 or l + k > len(u):
            raise ValueError("parse needs at least one full block")
        p = (len(u) - l) // k
        counts = Counter(tuple(u[l + i * k : l + (i + 1) * k]) for i in range(p))
        ranked = sorted(counts.items(), key=lambda bc: (-bc[1], bc[0]))
        return cls(tuple(ranked))

    @property
    def num_blocks(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TransformResult:
    """Winning parse plus the headline statistics of the search.

    The search does not build the grammar.  ``grammar`` and ``dictionary``
    build it from the winning parse the first time either is read, and keep
    it; callers that read only the statistics, such as the sweep and the MI
    bound, never pay for the build.  Until then the result keeps what the
    build reads: a copy of the input symbols and their suffix ranks and LCP,
    8 bytes a symbol besides the copy.  Once the grammar is built it lets go
    of all three.
    """

    code_bits: int
    num_rules: int
    block_len: int  # 0 for the bare terminal grammar
    shift: int
    m: int
    # (symbols, rank, lcp) of the input until the grammar is built, then None
    _source: tuple | None = field(repr=False, compare=False)

    @cached_property
    def grammar(self) -> BlockGrammar | DictionaryGrammar:
        arr, rank, lcp = self._source
        if self.block_len:
            g = _build_block_grammar(arr, self.m, self.block_len, self.shift, rank, lcp)
        else:
            g = DictionaryGrammar.from_arrays(self.m, arr.astype(np.int64), [0, arr.size])
        object.__setattr__(self, "_source", None)  # the result is frozen
        return g

    @property
    def dictionary(self) -> DictionaryGrammar:
        return self.grammar.base if self.block_len else self.grammar


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
    """``u`` as a one-dimensional array of terminals 1..m in ``symbol_dtype(m)``.

    The form is checked by :func:`_symbol_sequence`, and the range in the
    input's own integer type, so the only conversion is the final one, and
    none when ``u`` already has that type.
    """
    arr = _symbol_sequence(u)
    if arr.size and (int(arr.min()) < 1 or int(arr.max()) > m):
        raise ValueError(f"symbols must lie in 1..{m}")
    return arr.astype(symbol_dtype(m), copy=False)


def _packed_words(arr: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The w-symbol prefix of every suffix of ``arr`` packed into one word.

    ``b`` is the bit length of the largest symbol and ``w`` the largest power
    of two with ``w * b <= 64``.  ``words[i]`` holds symbols i..i+w-1, the
    first one highest and 0 past the end, so words order as their prefixes
    do; ``words[n] = 0`` stands for the empty suffix.  Returns
    ``(words, w, b)``.
    """
    n = arr.size
    b = int(arr.max(initial=1)).bit_length()
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


_SLICE = 1 << 14  # words per slice of _shared_symbols: 128 KiB per array


def _shared_symbols(x: np.ndarray, y: np.ndarray, w: int, b: int) -> np.ndarray:
    """How many leading symbols the packed words ``x`` and ``y`` share, w if equal.

    Read off the bit length of ``x ^ y``: smearing its highest set bit into
    every bit below leaves that many ones.  The words use only their low
    w * b bits, so no difference is longer.  Returns uint8.  The work runs
    in slices that stay in cache, and its temporaries are only that large.
    """
    out = np.empty(x.size, np.uint8)
    for lo in range(0, x.size, _SLICE):
        diff = x[lo : lo + _SLICE] ^ y[lo : lo + _SLICE]
        shifted = np.empty_like(diff)
        for s in (1, 2, 4, 8, 16, 32):
            np.right_shift(diff, s, out=shifted)
            diff |= shifted
        out[lo : lo + _SLICE] = (w * b - np.bitwise_count(diff)) // b
    return out


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


def _double(sa: np.ndarray, level: np.ndarray, slots: np.ndarray,
            h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One doubling round over the tied suffixes at ``slots``.

    Sorts them by their group ID in ``level``, then by the group ID h symbols
    on.  Returns the new group IDs (a copy of ``level``, made after the sort,
    with those of the tied suffixes replaced), the slots still tied, and the
    places the round splits: each slot r whose suffix shared a group with the
    one at r - 1 before the round but not after.
    """
    suffixes = sa[slots]
    key = level[suffixes].astype(np.int64)
    key *= level.size
    key += level[suffixes + h]
    order = np.argsort(key)
    del key  # regrouping gathers the IDs again, in half the memory of the keys
    suffixes = suffixes[order]
    del order
    sa[slots] = suffixes
    first = level[suffixes]
    head = _run_heads(first, level[suffixes + h])
    split = slots[1:][head[1:-1] & (first[1:] == first[:-1])]
    del first
    rank = level.copy()
    return rank, _regroup(rank, suffixes, slots, head), split


def _split_lcp(levels: list, sa: np.ndarray, split: np.ndarray, words: np.ndarray,
               w: int, b: int) -> np.ndarray:
    """LCP of the neighbours at the places ``split`` by the latest round.

    The round sorted by ``levels[-1]``, the group IDs by the first h = w *
    2**j symbols (j = len(levels) - 1), so the neighbours share h symbols and
    fewer than 2h.  Binary lifting over the levels below, top level first,
    counts the rest in whole words, and the packed words give what is left
    below w.  The work runs in slices, so its temporaries are only that
    large.
    """
    h = w << (len(levels) - 1)
    out = np.empty(split.size, sa.dtype)
    for lo in range(0, split.size, _SLICE):
        r = split[lo : lo + _SLICE]
        first = sa[r]
        a = sa[r - 1] + h
        c = first + h
        for j in range(len(levels) - 2, -1, -1):
            same = levels[j][a] == levels[j][c]
            a[same] += w << j
            c[same] += w << j
        out[lo : lo + _SLICE] = c - first + _shared_symbols(words[a], words[c], w, b)
    return out


class _SuffixIndex(NamedTuple):
    """What :func:`_suffix_index` builds, kept for the search to read."""

    rank: np.ndarray
    lcp: np.ndarray
    words: np.ndarray  # from _packed_words, with its w and b
    w: int
    b: int


def _suffix_index(arr: np.ndarray) -> _SuffixIndex:
    """Suffix ranks ``rank`` and neighbour LCP array ``lcp`` of ``arr``.

    ``rank[i]`` is the place of the suffix starting at i in sorted order (the
    inverse suffix array), and ``lcp[r]`` is the length of the longest common
    prefix of the suffixes at places r - 1 and r, with ``lcp[0] = 0``.  The
    packed words the sort starts from come back with them.

    The suffixes are sorted by prefix doubling (Manber & Myers 1993) that
    starts from packed words (:func:`_packed_words`): one argsort of the words
    ranks every suffix by its first w symbols, which stands in for the first
    log2 w doubling rounds.  Each later round doubles the prefix length h and
    re-sorts only the suffixes whose group still has two or more members
    (Larsson & Sadakane 2007), by the pair of group IDs at i and i + h.  A
    group's ID is the slot of its first suffix, so equal IDs at a level mean
    equal prefixes and the IDs ascend in prefix order.  The rounds stop once
    every group is a single suffix.

    The LCP of neighbours in different word groups is the number of leading
    symbols their words share, read off the highest set bit of their XOR;
    when the word sort already separates every suffix, that one pass is the
    whole LCP.  Neighbours that a round parts share h symbols but not 2h, so
    right after the round their LCP is h plus binary lifting over the kept
    ID arrays below its level, top level first (equal IDs at level j mean
    w * 2**j equal symbols), plus the shared symbols of the words there.
    The first round's neighbours need no lifting, only the words h on.  The
    ID arrays are kept until the last round's neighbours are lifted.
    """
    n = arr.size
    dtype = np.int32 if n < 2**31 else np.int64
    words, w, b = _packed_words(arr)
    if n == 0:
        return _SuffixIndex(np.zeros(0, dtype), np.zeros(0, dtype), words, w, b)
    sa = np.argsort(words[:n]).astype(dtype)
    sorted_words = words[sa]
    # exact for neighbours in different word groups, w within one; rounds
    # only reorder suffixes inside a group, so this stays true
    common = _shared_symbols(sorted_words[:-1], sorted_words[1:], w, b).astype(dtype)
    head = _run_heads(sorted_words)
    del sorted_words
    rank = np.empty(n + 1, dtype)
    rank[n] = -1  # the empty suffix ranks first
    tied = _regroup(rank, sa, np.arange(n, dtype=dtype), head)
    del head
    levels = []  # level j: group IDs by the first w * 2**j symbols
    while tied.size:
        levels.append(rank)
        rank, tied, split = _double(sa, rank, tied, w << (len(levels) - 1))
        common[split - 1] = _split_lcp(levels, sa, split, words, w, b)
    del levels
    return _SuffixIndex(rank[:n], np.concatenate((np.zeros(1, dtype), common)), words, w, b)


def _range_index(rank: np.ndarray, lcp: np.ndarray, lo: int,
                 hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and neighbour LCP of the suffixes of x[lo:hi] among themselves.

    Built from the index of x, counted from lo.  The range's suffixes keep
    their order among those of x, and the LCP of two neighbours among them
    is the least LCP of x between their places: that is the range's own
    index when ``hi`` is the end of x.  Before the end, a common prefix may
    run past ``hi``, so the LCP is an upper bound.
    """
    if hi - lo == rank.size:
        return rank, lcp
    places = rank[lo:hi]
    in_range = np.zeros(lcp.size, bool)
    in_range[places] = True
    sub_rank = np.cumsum(in_range, dtype=rank.dtype)[places] - 1
    kept = np.flatnonzero(in_range)
    sub_lcp = np.zeros(kept.size, lcp.dtype)
    if kept.size > 1:
        sub_lcp[1:] = np.minimum.reduceat(lcp[: kept[-1] + 1], kept[:-1] + 1)
    return sub_rank, sub_lcp


def _reach_order(before: np.ndarray, kcap: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ascending order of ``before``, and where each value starts.

    ``before[i]`` is the LCP of the suffix at i with the one sorted just
    before it, or an upper bound on it (:func:`_sweep`).  It is clipped to
    ``kcap + 1``, which keeps every k <= kcap apart, and stored in the
    narrowest unsigned type that holds that, so the stable sort is a radix
    sort.  Returns ``(order, below)``: ``below[k - 1]`` positions have
    ``before < k``, so ``order[below[k - 1]:]`` are the positions whose
    k-gram is not the first of its class in sorted order.
    """
    dtype = np.uint8 if kcap < 255 else np.uint16 if kcap < 65535 else before.dtype
    clipped = np.minimum(before, kcap + 1).astype(dtype)
    order = np.argsort(clipped, kind="stable").astype(before.dtype)
    below = np.cumsum(np.bincount(clipped, minlength=kcap + 2))
    return order, below


def _phase_duplicates(order: np.ndarray, edge: int, k: int) -> np.ndarray:
    """Per phase l < k, how many positions i = l (mod k) have ``before >= k``.

    ``order[edge:]`` are those positions (:func:`_reach_order`): each block
    of the phase that repeats an earlier one is among them.  The smaller of
    the two sides is binned mod k; when that is the side below k, its counts
    are taken from the ceil((n - l) / k) positions of each phase.
    """
    n = order.size
    if n - edge <= edge:
        return np.bincount(order[edge:] % k, minlength=k)
    return (n - np.arange(k) + k - 1) // k - np.bincount(order[:edge] % k, minlength=k)


# the aligned-repeat caps bound only block lengths above this.  Their
# tables are built for the first such k that the first-of-class floor does
# not prune, which a long repeat, with classes of two at nearly every k up
# to its length, brings about.  A random input's longest repeat, near
# 2 log2 n, passes 32 from about 2^17 symbols, but there the floor alone
# prunes every k above 32, so the tables are not built
_PAIRS_ABOVE = 32


class _PairCaps(NamedTuple):
    """Caps on how many blocks of length k repeat an earlier block.

    ``level(k)`` caps them summed over the phases of k, and ``phases(k)``
    in each phase (:func:`_pair_caps`).
    """

    rest: np.ndarray  # per k: P(k) - I(k), the repeats of classes of 3 or more
    aligned: np.ndarray  # per k: A(k)
    pos: np.ndarray  # per pair of neighbours: one member's position,
    dist: np.ndarray  # the distance between the two,
    lo: np.ndarray  # and the k in (lo, hi] at which they are a class of two
    hi: np.ndarray

    def level(self, k: int) -> int:
        return int(self.rest[k] + self.aligned[k])

    def phases(self, k: int):
        if not self.aligned[k]:
            return self.rest[k]
        hit = (self.dist % k == 0) & (self.lo < k) & (k <= self.hi)
        return self.rest[k] + np.bincount(self.pos[hit] % k, minlength=k)


def _pair_caps(rank: np.ndarray, lcp: np.ndarray, kcap: int) -> _PairCaps:
    """The aligned-repeat caps of block lengths k in (_PAIRS_ABOVE, kcap].

    ``rank`` and ``lcp`` index the searched range (:func:`_range_index`).
    A block of phase l repeats an earlier block only if both start at
    places congruent mod k and in one k-gram class.  So a class of c members
    holds at most c - 1 repeats over all phases, and a class of two holds
    one only when its members lie a multiple of k apart, in the phase of
    their positions.  Summed over the classes, the repeats of k are at most
    R(k) = P(k) - I(k) + A(k): P(k) places have ``lcp >= k`` (the sum of
    c - 1), I(k) classes have two members, and A(k) of them are aligned.
    Each phase's repeats are at most P(k) - I(k) plus its aligned pairs.

    Neighbours r - 1 and r are a class of two for the k in (max(lcp[r - 1],
    lcp[r + 1]), lcp[r]], one interval per place, so I is one difference
    array.  A is counted per distance d from its divisors k: the pairs at
    d whose interval holds k, by two searchsorted calls on the intervals'
    ends sorted by (d, end).  :func:`_sweep` builds the caps only once a
    block length above _PAIRS_ABOVE gets past its first-of-class floor, and
    reads them only above it: the entries at or below it are not caps.

    Before the end of x the LCP of a range is an upper bound.  A class then
    holds the blocks of one k-gram, as before, and perhaps places whose
    suffix in the range is shorter than k, which parse no block.  A class of
    c' >= c members caps c' - 1 >= c - 1 repeats, and a class of two is
    either the true pair or holds at most one block; so the caps can only
    overcount.
    """
    places = np.flatnonzero(lcp > _PAIRS_ABOVE)
    hi = np.minimum(lcp[places], kcap)
    rest = np.bincount(hi, minlength=kcap + 1)[::-1].cumsum()[::-1]  # P(k)
    beside = np.append(lcp, 0)
    lo = np.maximum(np.maximum(beside[places - 1], beside[places + 1]), _PAIRS_ABOVE)
    pair = hi > lo
    places, lo, hi = places[pair], lo[pair], hi[pair]
    rest -= np.cumsum(np.bincount(lo + 1, minlength=kcap + 2)
                      - np.bincount(hi + 1, minlength=kcap + 2))[: kcap + 1]  # I(k)
    sa = np.empty(rank.size, rank.dtype)
    sa[rank] = np.arange(rank.size, dtype=rank.dtype)
    pos = sa[places - 1].astype(np.int64)
    dist = np.abs(sa[places] - pos)
    # each distance with its divisors k <= kcap: j and d // j for j*j <= d
    ds = np.unique(dist)
    ds_of, ks = [ds[:0]], [ds[:0]]
    for j in range(1, min(math.isqrt(int(ds.max(initial=0))), kcap) + 1):
        d = ds[(ds % j == 0) & (ds >= j * j)]
        big = d[d != j * j]
        ds_of += [d, big]
        ks += [np.full(d.size, j), big // j]
    ds_of, ks = np.concatenate(ds_of), np.concatenate(ks)
    keep = (ks > _PAIRS_ABOVE) & (ks <= kcap)
    query = ds_of[keep] * (kcap + 2) + ks[keep]
    starts, ends = (np.sort(dist * (kcap + 2) + end) for end in (lo, hi))
    active = np.searchsorted(starts, query) - np.searchsorted(ends, query)
    aligned = np.bincount(ks[keep], weights=active, minlength=kcap + 1).astype(np.int64)
    return _PairCaps(rest, aligned, pos, dist, lo, hi)


def _kgram_classes(lcp: np.ndarray, k: int) -> np.ndarray:
    """Class ID of the k-gram of each suffix, by its place in sorted order.

    Equal k-grams share an ID, and IDs ascend in the order of the k-grams;
    the k-gram at position i has the ID at place ``rank[i]``.  Suffixes
    shorter than k get IDs of their own, but in a range that ends before
    the end of x (:func:`_range_index`) they may share the ID of a k-gram;
    no parse reads them.
    """
    return np.cumsum(lcp < k, dtype=lcp.dtype)


def _price(fl: int, k: int, blocks: int, runs: int, refs: int) -> int:
    """Bits of a block grammar: ``blocks`` rules of k terminals, ``runs``
    terminals in the primary rule, and ``refs`` bits of rule references.

    Each rule ends in a separator, and the grammar in the terminator.
    """
    return (blocks * (k + 1) + runs + 2) * fl + refs


_RANK_1_BITS = rank_length(1)  # the cheapest reference


def _floor(fl: int, k: int, p: int, repeats: int, runs: int) -> int:
    """Fewest bits of a parse of ``p`` blocks and ``runs`` terminals in which
    at most ``repeats`` blocks repeat an earlier block.

    At least ``s = p - repeats`` blocks are then distinct, so there are at
    least ``max(1, s)`` rules.  When ``repeats`` counts the places whose
    k-gram also starts at the suffix sorted just before theirs, each block
    left out is the first of its k-gram class in sorted order, so no two of
    them are equal.  Each distinct block takes a rank of its own, so s of
    them cost at least the s cheapest ranks, ranks 1..s, and every other
    reference at least the bits of rank 1.
    """
    s = max(0, p - repeats)
    return _price(fl, k, max(1, s), runs, _rank_length_sum(s) + _RANK_1_BITS * (p - s))


def _length_pruned(fl: int, n: int, k: int, repeats: int, best: int) -> bool:
    """Whether no phase of block length k can cost less than ``best`` when at
    most ``repeats`` blocks repeat an earlier one over all its phases.

    A phase of a string of n symbols parses n // k blocks or one fewer, so
    the floor (:func:`_floor`) of those two counts is the cheapest
    conceivable cost.
    """
    p_hi = n // k
    return all(_floor(fl, k, p, repeats, n - p * k) >= best
               for p in {p_hi, max(p_hi - 1, 1)})


def _sweep(code: SymbolCode, index: _SuffixIndex, lo: int, hi: int):
    """Cost of the cheapest block grammar of x[lo:hi], and its parse.

    ``index`` is the suffix index of x.  The range's ranks and LCP are built
    from it once (:func:`_range_index`), and every bound and block key below
    reads them, counted from ``lo``.  The parse is ``(k, l, distinct)``: its
    block length, phase and number of distinct blocks, or None for the
    terminal grammar, which wins every tie.
    """
    n = hi - lo
    fl = code.fixed_len
    best = _price(fl, 0, 0, n, 0)
    best_parse = None
    rank, lcp = _range_index(index.rank, index.lcp, lo, hi)
    words, w, b = index.words, index.w, index.b
    # each position's LCP with the suffix sorted just before it, capped at
    # its suffix's length where the range's LCP is only an upper bound
    before = lcp[rank]
    if hi < index.rank.size:
        np.minimum(before, np.arange(n, 0, -1, dtype=before.dtype), out=before)
    kcap = int(before.max(initial=0))  # the longest repeat: no longer block repeats
    if kcap < 1:
        return best, None
    order, below = _reach_order(before, kcap)
    pairs = None  # the aligned-repeat caps, once a block length needs them
    rank_len = _rank_length_table(n)

    for k in range(1, kcap + 1):
        if (k + 1) * fl >= best:
            break
        edge = int(below[k - 1])
        repeats = n - edge  # positions whose k-gram is not the first of its class
        if pairs is not None:
            repeats = min(repeats, pairs.level(k))
        if _length_pruned(fl, n, k, repeats, best):
            continue
        if pairs is None and k > _PAIRS_ABOVE:
            pairs = _pair_caps(rank, lcp, kcap)
            if _length_pruned(fl, n, k, min(repeats, pairs.level(k)), best):
                continue

        per_shift = _phase_duplicates(order, edge, k)
        if pairs is not None:
            per_shift = np.minimum(per_shift, pairs.phases(k))

        # a block of k <= w symbols is the top of its word; past 32 bits the
        # keys stay 64-bit
        shift = (w - k) * b
        key_dtype = np.uint32 if k * b <= 32 else np.uint64
        classes = None
        for l in range(0, min(k, n - k + 1)):
            p = (n - l) // k
            runs = n - p * k
            if _floor(fl, k, p, int(per_shift[l]), runs) >= best:
                continue
            if k <= w:
                # shifted straight into the key type: no 64-bit temporary
                keys = np.right_shift(words[lo + l : lo + l + p * k : k], shift,
                                      out=np.empty(p, key_dtype), casting="unsafe")
                keys.sort()
            else:
                if classes is None:
                    classes = _kgram_classes(lcp, k)
                # IDs ascend with the place, so sorting places sorts the IDs
                # and makes their gather sequential
                places = rank[l : l + p * k : k].copy()
                places.sort()
                keys = classes[places]
            head = _run_heads(keys)
            distinct = int(np.count_nonzero(head)) - 1
            # all but the first block of each class repeat an earlier one
            if _floor(fl, k, p, p - distinct, runs) >= best:
                continue
            heads = np.flatnonzero(head)
            counts = heads[1:] - heads[:-1]
            counts[::-1].sort()
            cost = _price(fl, k, distinct, runs, int(np.dot(counts, rank_len[:distinct])))
            if cost < best:
                best = cost
                best_parse = (k, l, distinct)
    return best, best_parse


def _build_block_grammar(arr: np.ndarray, m: int, k: int, l: int, rank: np.ndarray,
                         lcp: np.ndarray):
    """Materialize the ranked grammar for the (k, l) parse of ``arr``.

    ``rank`` and ``lcp`` are the suffix index of ``arr``
    (:func:`_suffix_index`).  The parse's blocks are told apart by their
    k-gram class IDs (:func:`_kgram_classes`), which are below n + 1.
    Blocks are ranked by descending count, ties by ascending block, as in
    :class:`RankedBlockTable`: the IDs ascend in block order, and a stable
    sort on the count keeps that order within a tie.
    """
    n = arr.size
    p = (n - l) // k
    ids = _kgram_classes(lcp, k)[rank[l : l + p * k : k]]
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


def minimal_block_transform(code: SymbolCode, u) -> TransformResult:
    """Cheapest block grammar producing ``u`` and its exact emission size.

    Ties between block lengths go to the smaller k, then the smaller phase;
    a tie with the terminal grammar keeps the terminal grammar.
    """
    arr = _as_symbols(u, code.m)
    index = _suffix_index(arr)
    # the result keeps a copy of the input, and the ranks and LCP, until its
    # grammar is built
    return _result(code, arr.copy(), index, *_sweep(code, index, 0, arr.size))


def _result(code: SymbolCode, arr: np.ndarray, index: _SuffixIndex, best: int,
            parse) -> TransformResult:
    """A new result for the :func:`_sweep` of all of ``arr``."""
    k, l, distinct = parse or (0, 0, 0)
    return TransformResult(code_bits=best, num_rules=distinct + 1, block_len=k, shift=l,
                           m=code.m, _source=(arr, index.rank, index.lcp))


# (m, x, index, best, parse) of the last concatenation _split_transforms
# searched, its arrays read-only; replaced whole, so concurrent calls read
# one entry or the other
_last_joint = None


def _split_transforms(code: SymbolCode, x: np.ndarray, cut: int) -> tuple[int, int, TransformResult]:
    """Code lengths of ``x[:cut]`` and ``x[cut:]``, and the transform of ``x``.

    One suffix index of ``x`` serves all three searches.  ``x`` must be
    private to the call: it is held, with its index and the search of all
    of it, until a call with another concatenation or alphabet replaces
    them, so that calls at other cuts of the same ``x`` only search the two
    ranges.  That is about 17 bytes a symbol: ``x``, the ranks, the LCP and
    the packed words.  Each call returns a new result, which keeps ``x`` and
    its ranks and LCP until its grammar is built.
    """
    global _last_joint
    held = _last_joint
    if held is not None and held[0] == code.m and np.array_equal(held[1], x):
        _, x, index, best, parse = held
    else:
        index = _suffix_index(x)
        best, parse = _sweep(code, index, 0, x.size)
        for a in (x, index.rank, index.lcp, index.words):
            a.setflags(write=False)  # shared by later calls: a write raises
        _last_joint = (code.m, x, index, best, parse)
    bu, bv = (_sweep(code, index, lo, hi)[0] for lo, hi in ((0, cut), (cut, x.size)))
    return bu, bv, _result(code, x, index, best, parse)


def encode(code: SymbolCode, u) -> BitString:
    """Binary code of ``u``: the emission of its cheapest block grammar."""
    # the result lets go of the copy of u, its ranks and LCP once it has built
    # the grammar, so none of them is held while the emission runs
    grammar = minimal_block_transform(code, u).dictionary
    return encode_grammar(code, grammar)


def decode(code: SymbolCode, bits: BitString, *, max_len: int | None = None) -> np.ndarray:
    """Inverse of :func:`encode`; returns the terminal string.

    A payload whose grammar is not block shaped, which :func:`encode` never
    writes, raises :class:`CorruptionError`.
    """
    g = decode_grammar(code, bits)
    if not is_block_shaped(g):
        raise CorruptionError("grammar is not block shaped")
    return expand(g, max_len=max_len)


def compress(u, m: int) -> bytes:
    """Frame-wrapped :func:`encode` for an alphabet of ``m`` symbols."""
    code = SymbolCode(m)
    _check_frame_alphabet(code.m)  # before the search, which would be wasted
    # read from the module at call time, as the traced benchmark run patches
    # it (TRACED in perfbench/workloads.py); so is bits.unpack_frame below
    return bits.pack_frame(code.m, encode(code, u))


def decompress(data: bytes) -> tuple[np.ndarray, int]:
    """Inverse of :func:`compress`; returns (symbols, alphabet size)."""
    m, payload = bits.unpack_frame(data)
    return decode(SymbolCode(m), payload), m
