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
common prefix (LCP) of each pair of neighbouring suffixes.

* A parse can only beat the terminal grammar if some block repeats, so k
  runs up to the longest repeated substring, the largest LCP.
* The k-gram at position i occurs twice or more exactly when the suffix at i
  shares k symbols with a neighbour in sorted order.  Positions whose k-gram
  occurs once contribute pairwise-distinct singleton blocks, which yields a
  per-phase lower bound on the parse cost; a phase is counted only when its
  bound is below the best cost so far.
* Cutting the sorted suffixes wherever the LCP drops below k gives every
  k-gram a class ID, equal for equal k-grams and ascending in their order,
  so the block counts of a phase come from sorting the IDs of its blocks.
* A block length is skipped outright when even one secondary rule would
  already cost more than the best grammar found so far.

Every bound is exact or a true lower bound, so pruning never changes the
result.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

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
    """Winning grammar plus the headline statistics of the search."""

    grammar: BlockGrammar | DictionaryGrammar
    code_bits: int
    num_rules: int
    block_len: int  # 0 for the bare terminal grammar
    shift: int

    @property
    def dictionary(self) -> DictionaryGrammar:
        g = self.grammar
        return g.base if isinstance(g, BlockGrammar) else g

    @property
    def m(self) -> int:
        return self.grammar.m


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
    """Vector of open-class codeword lengths for offsets 1..jmax."""
    return rank_lengths(np.arange(1, max(jmax, 0) + 1))


def _suffix_index(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix ranks ``rank`` and neighbour LCP array ``lcp`` of ``arr``.

    ``rank[i]`` is the place of the suffix starting at i in sorted order (the
    inverse suffix array), and ``lcp[r]`` is the length of the longest common
    prefix of the suffixes at places r - 1 and r, with ``lcp[0] = 0``.  The
    suffixes are sorted by prefix doubling (Manber & Myers 1993): round j
    ranks each suffix by its first 2**j symbols, from the pair of round j-1
    ranks at i and i + 2**(j-1), with one argsort.  The rounds stop once every
    rank is distinct, after ceil(log2(L + 1)) rounds for a longest repeat L.
    The LCP is then summed by binary lifting over the kept rank arrays, top
    level first: equal ranks at level j mean 2**j equal symbols.
    """
    n = arr.size
    dtype = np.int32 if n < 2**31 else np.int64
    if n == 0:
        return np.zeros(0, dtype), np.zeros(0, dtype)
    levels = []  # level j ranks each suffix by its first 2**j symbols
    key = arr
    while True:
        sa = np.argsort(key)
        sorted_key = key[sa]
        sorted_rank = np.zeros(n, dtype)
        np.cumsum(sorted_key[1:] != sorted_key[:-1], dtype=dtype, out=sorted_rank[1:])
        rank = np.empty(n + 1, dtype)
        rank[sa] = sorted_rank
        rank[n] = -1  # the empty suffix ranks first
        levels.append(rank)
        if sorted_rank[-1] == n - 1:
            break
        h = 1 << (len(levels) - 1)
        key = rank[:n].astype(np.int64)
        key *= n + 1
        key[: n - h] += rank[h:n] + 1
    sa = sa.astype(dtype)
    left, right = sa[:-1], sa[1:]
    common = np.zeros(n - 1, dtype)
    levels.pop()  # all distinct, so no two suffixes match at the top level
    while levels:
        level = levels.pop()
        common[level[left + common] == level[right + common]] += 1 << len(levels)
    return rank[:n], np.concatenate((np.zeros(1, dtype), common))


def _repeat_reach(rank: np.ndarray, lcp: np.ndarray) -> np.ndarray:
    """Per start position, the longest prefix of its suffix that occurs twice.

    It is the larger LCP of the suffix with its two neighbours in sorted
    order, so the k-gram at i occurs at least twice exactly when
    ``reach[i] >= k``.
    """
    return np.maximum(lcp, np.append(lcp[1:], 0))[rank]


def _kgram_classes(rank: np.ndarray, lcp: np.ndarray, k: int) -> np.ndarray:
    """Per start position, a class ID of its k-gram.

    Equal k-grams share an ID, and IDs ascend in the order of the k-grams.
    Positions whose suffix is shorter than k get IDs of their own.
    """
    return np.cumsum(lcp < k, dtype=lcp.dtype)[rank]


def _block_counts(ids: np.ndarray) -> np.ndarray:
    """Occurrence counts of the distinct values in ``ids`` (nonempty)."""
    ids = ids.copy()
    ids.sort()
    run_start = np.empty(ids.size + 1, dtype=bool)
    run_start[0] = run_start[-1] = True
    np.not_equal(ids[1:], ids[:-1], out=run_start[1:-1])
    bounds = run_start.nonzero()[0]
    return bounds[1:] - bounds[:-1]


def _ref_floor(s_lb: int, p: int, cum_rank_len: np.ndarray) -> int:
    """Lower bound on the total identifier cost of a parse.

    ``s_lb`` parse blocks are known to be pairwise-distinct singletons; they
    occupy the worst ranks, every other reference costs at least 3 bits.
    """
    if s_lb <= 0:
        return 3 * p
    return int(cum_rank_len[s_lb]) + 3 * (p - s_lb)


def _sweep(code: SymbolCode, rank: np.ndarray, lcp: np.ndarray, best: int,
           kmax: int | None):
    """Cost and (k, l) of the cheapest parse costing less than ``best``.

    Returns ``(best, None)`` when no parse does.
    """
    n = lcp.size
    fl = code.fixed_len
    kcap = int(lcp.max(initial=0))  # the longest repeat: no longer block repeats
    if kmax is not None:
        kcap = min(kcap, kmax)
    reach = _repeat_reach(rank, lcp)
    rank_len = _rank_length_table(n)
    cum_rank_len = np.concatenate(([0], np.cumsum(rank_len)))

    dup_bound = n  # valid upper bound on the duplicate count for every k
    best_kl = None
    for k in range(1, kcap + 1):
        if (k + 1) * fl >= best:
            break
        p_hi = n // k

        # cheapest conceivable cost for this k given the stale duplicate bound
        skip = True
        for p in {p_hi, max(p_hi - 1, 1)}:
            s_lb = max(0, p - dup_bound)
            lb = (
                max(1, s_lb) * (k + 1) * fl
                + (n - p * k + 2) * fl
                + _ref_floor(s_lb, p, cum_rank_len)
            )
            if lb < best:
                skip = False
                break
        if skip:
            continue

        starts = np.flatnonzero(reach >= k)
        dup_bound = starts.size  # duplicates can only vanish as k grows
        per_shift = np.bincount(starts % k, minlength=k)

        classes = None
        for l in range(0, min(k, n - k + 1)):
            p = (n - l) // k
            tail = (n - l) - p * k
            s_lb = max(0, p - int(per_shift[l]))
            lb = (
                max(1, s_lb) * (k + 1) * fl
                + (l + tail + 2) * fl
                + _ref_floor(s_lb, p, cum_rank_len)
            )
            if lb >= best:
                continue
            if classes is None:
                classes = _kgram_classes(rank, lcp, k)
            counts = _block_counts(classes[l : l + p * k : k])
            cost = counts.size * (k + 1) * fl + (l + tail + 2) * fl
            if cost < best:
                counts[::-1].sort()
                cost += int(np.dot(counts, rank_len[: counts.size]))
            if cost < best:
                best = cost
                best_kl = (k, l)
    return best, best_kl


def _build_block_grammar(arr: np.ndarray, code: SymbolCode, k: int, l: int,
                         classes: np.ndarray):
    """Materialize the ranked grammar for the winning (k, l) parse.

    ``classes`` are the k-gram class IDs of :func:`_kgram_classes`.  Blocks
    are ranked by descending count, ties by ascending block, as in
    :class:`RankedBlockTable`: ``np.unique`` lists the IDs in ascending
    order, which is block order, and a stable sort on the count keeps that
    order within a tie.
    """
    n = arr.size
    m = code.m
    p = (n - l) // k
    tail = (n - l) - p * k
    _, first, inverse, counts = np.unique(
        classes[l : l + p * k : k], return_index=True, return_inverse=True,
        return_counts=True,
    )
    order = np.argsort(-counts, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(1, order.size + 1)
    blocks = arr[l : l + p * k].reshape(p, k)[first[order]]
    primary = arr[:l].tolist() + (m + rank[inverse]).tolist() + arr[l + p * k :].tolist()
    g = DictionaryGrammar(m, tuple(map(tuple, blocks.tolist())) + (tuple(primary),))
    return BlockGrammar(base=g, k=k, head_len=l, tail_len=tail)


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
    best, best_kl = _sweep(code, rank, lcp, (n + 2) * code.fixed_len, kmax)
    if best_kl is None:
        g = DictionaryGrammar(code.m, (tuple(int(x) for x in arr),))
        return TransformResult(grammar=g, code_bits=best, num_rules=1,
                               block_len=0, shift=0)
    k, l = best_kl
    grammar = _build_block_grammar(arr, code, k, l, _kgram_classes(rank, lcp, k))
    return TransformResult(
        grammar=grammar,
        code_bits=best,
        num_rules=grammar.base.num_rules,
        block_len=k,
        shift=l,
    )


def encode(code: SymbolCode, u, *, kmax: int | None = None) -> BitString:
    """Binary code of ``u``: the emission of its cheapest block grammar."""
    result = minimal_block_transform(code, u, kmax=kmax)
    return encode_grammar(code, result.dictionary)


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
    from .bits import pack_frame

    code = SymbolCode(m)
    return pack_frame(m, encode(code, u, kmax=kmax))


def decompress(data: bytes, *, max_len: int | None = None) -> tuple[np.ndarray, int]:
    """Inverse of :func:`compress`; returns (symbols, alphabet size)."""
    from .bits import unpack_frame

    m, bits = unpack_frame(data)
    return decode(SymbolCode(m), bits, max_len=max_len), m
