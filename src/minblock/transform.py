"""Search for the cheapest block grammar and the binary code built on it.

For every viable block length k and phase l the input is parsed into a head
of l terminals, full k-blocks, and a tail of the leftover terminals.  Each
distinct block becomes a dictionary rule and rule identifiers are handed out
by descending block count (frequent blocks get the short codewords, which is
optimal because codeword lengths are nondecreasing).  The parse cost is
counted exactly in bits of the final emission; the bare terminal grammar is
always a candidate, so the result is the global minimum over all block
grammars producing the input.

The sweep over (k, l) stays near linear thanks to pruning that is safe by
construction:

* a parse can only beat the terminal grammar if some block repeats, so block
  lengths beyond the longest repeated substring are never examined;
* positions whose k-gram occurs once globally contribute pairwise-distinct
  singleton blocks, which yields a per-phase lower bound on the parse cost
  from a single duplicate scan (done with a 64-bit rolling hash: collisions
  only weaken the bound, never the exactness);
* a block length is skipped outright when even one secondary rule would
  already cost more than the best grammar found so far.
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

# below this the plain dict sweep beats numpy call overhead
_VECTOR_MIN_N = 4096

_HASH_BASE = 0x9E3779B97F4A7C15 | 1
_HASH_BASE_INV = pow(_HASH_BASE, -1, 1 << 64)


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


def _block_bytes(arr: np.ndarray) -> tuple[bytes, int]:
    """Byte buffer whose lexicographic order matches the symbol order."""
    w = arr.dtype.itemsize
    return arr.astype(f">u{w}").tobytes(), w


def _longest_repeat(buf: bytes, w: int, n: int) -> int:
    """Largest L such that some length-L substring occurs twice (0 if none)."""

    def has_repeat(L: int) -> bool:
        seen = set()
        step = w * L
        for off in range(0, w * (n - L + 1), w):
            s = buf[off : off + step]
            if s in seen:
                return True
            seen.add(s)
        return False

    if n < 2 or not has_repeat(1):
        return 0
    lo, hi = 1, n - 1  # has_repeat(lo) holds
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if has_repeat(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _sweep_small(arr: np.ndarray, code: SymbolCode, best: int, kmax: int | None):
    n = arr.size
    fl = code.fixed_len
    buf, w = _block_bytes(arr)
    kcap = min(n, _longest_repeat(buf, w, n))
    if kmax is not None:
        kcap = min(kcap, kmax)
    if kcap < 1:
        return best, None
    rank_len = _rank_length_table(n).tolist()
    best_kl = None
    for k in range(1, kcap + 1):
        if (k + 1) * fl >= best:
            break
        step = w * k
        for l in range(0, min(k, n - k + 1)):
            p = (n - l) // k
            tail = (n - l) - p * k
            base = w * l
            counts = Counter(
                buf[off : off + step] for off in range(base, base + p * step, step)
            )
            cost = len(counts) * (k + 1) * fl + (l + tail + 2) * fl
            if cost >= best:
                continue
            for i, c in enumerate(sorted(counts.values(), reverse=True)):
                cost += c * rank_len[i]
                if cost >= best:
                    break
            if cost < best:
                best = cost
                best_kl = (k, l)
    return best, best_kl


def _duplicate_flags(arr64: np.ndarray, powers: np.ndarray, inv_powers: np.ndarray,
                     prefix: np.ndarray, k: int) -> np.ndarray:
    """Boolean flags for start positions whose k-gram hash occurs twice or more.

    Hash collisions can only overflag, which keeps every bound derived from
    the flags a valid lower bound.
    """
    n = arr64.size
    window = prefix[k - 1 :].copy()
    window[1:] -= prefix[: n - k]
    window *= inv_powers[: n - k + 1]
    order = np.argsort(window, kind="stable")
    ws = window[order]
    eq = ws[1:] == ws[:-1]
    rep_sorted = np.empty(ws.size, dtype=bool)
    rep_sorted[0] = False
    rep_sorted[1:] = eq
    rep_sorted[:-1] |= eq
    flags = np.empty(ws.size, dtype=bool)
    flags[order] = rep_sorted
    return flags


def _ref_floor(s_lb: int, p: int, cum_rank_len: np.ndarray) -> int:
    """Lower bound on the total identifier cost of a parse.

    ``s_lb`` parse blocks are known to be pairwise-distinct singletons; they
    occupy the worst ranks, every other reference costs at least 3 bits.
    """
    if s_lb <= 0:
        return 3 * p
    return int(cum_rank_len[s_lb]) + 3 * (p - s_lb)


def _sweep_large(arr: np.ndarray, code: SymbolCode, best: int, kmax: int | None):
    n = arr.size
    fl = code.fixed_len
    m = code.m
    buf, w = _block_bytes(arr)
    bytes_view = np.frombuffer(buf, dtype=np.uint8)

    rank_len = _rank_length_table(n)
    cum_rank_len = np.concatenate(([0], np.cumsum(rank_len)))

    arr64 = arr.astype(np.uint64)
    base = np.uint64(_HASH_BASE)
    powers = np.empty(n, dtype=np.uint64)
    powers[0] = 1
    if n > 1:
        np.cumprod(np.full(n - 1, base, dtype=np.uint64), out=powers[1:])
    inv_powers = np.empty(n, dtype=np.uint64)
    inv_powers[0] = 1
    if n > 1:
        np.cumprod(np.full(n - 1, np.uint64(_HASH_BASE_INV), dtype=np.uint64),
                   out=inv_powers[1:])
    prefix = np.cumsum(arr64 * powers, dtype=np.uint64)

    pack_cap = _pack_capacity(m)

    dup_bound = n  # valid upper bound on the duplicate count for every k
    best_kl = None
    k = 0
    while True:
        k += 1
        if k > n or (kmax is not None and k > kmax):
            break
        if (k + 1) * fl >= best:
            break
        p_hi = n // k
        if p_hi < 1:
            break

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

        flags = _duplicate_flags(arr64, powers, inv_powers, prefix, k)
        dup = int(flags.sum())
        dup_bound = dup  # duplicates can only vanish as k grows
        if dup == 0:
            break  # no length-k substring repeats, so no longer one does
        starts = np.flatnonzero(flags)
        per_shift = np.bincount(starts % k, minlength=k)

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
            counts = _parse_counts(arr, bytes_view, w, m, pack_cap, k, l, p)
            cost = counts.size * (k + 1) * fl + (l + tail + 2) * fl
            if cost < best:
                counts[::-1].sort()
                cost += int(np.dot(counts, rank_len[: counts.size]))
            if cost < best:
                best = cost
                best_kl = (k, l)
    return best, best_kl


def _pack_capacity(m: int) -> int:
    """Largest block length whose blocks pack exactly into one uint64."""
    cap = 0
    acc = m + 1
    while acc <= 1 << 64:
        acc *= m + 1
        cap += 1
    return cap


def _block_ids(arr: np.ndarray, bytes_view: np.ndarray, w: int, m: int,
               pack_cap: int, k: int, l: int, p: int) -> np.ndarray:
    """One key per block of the parse; keys sort as the blocks do.

    A block of at most ``pack_cap`` symbols is its base-(m+1) number; a
    longer one is its big-endian bytes viewed as one void item.
    """
    if k <= pack_cap:
        sub = arr[l : l + p * k].reshape(p, k).astype(np.uint64)
        ids = np.zeros(p, dtype=np.uint64)
        radix = np.uint64(m + 1)
        for col in range(k):
            ids *= radix
            ids += sub[:, col]
        return ids
    rows = bytes_view[w * l : w * (l + p * k)].reshape(p, w * k)
    return rows.view(f"V{w * k}").ravel()


def _parse_counts(arr: np.ndarray, bytes_view: np.ndarray, w: int, m: int,
                  pack_cap: int, k: int, l: int, p: int) -> np.ndarray:
    """Occurrence counts of the distinct blocks of one parse (any order)."""
    ids = _block_ids(arr, bytes_view, w, m, pack_cap, k, l, p)
    return np.unique(ids, return_counts=True)[1]


def _build_block_grammar(arr: np.ndarray, code: SymbolCode, k: int, l: int):
    """Materialize the ranked grammar for the winning (k, l) parse.

    Blocks are ranked by descending count, ties by ascending block, as in
    :class:`RankedBlockTable`: ``np.unique`` lists them in ascending order
    and a stable sort on the count keeps that order within a tie.
    """
    n = arr.size
    m = code.m
    p = (n - l) // k
    tail = (n - l) - p * k
    buf, w = _block_bytes(arr)
    ids = _block_ids(arr, np.frombuffer(buf, dtype=np.uint8), w, m, _pack_capacity(m),
                     k, l, p)
    _, first, inverse, counts = np.unique(
        ids, return_index=True, return_inverse=True, return_counts=True
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
    best = (n + 2) * code.fixed_len
    best_kl = None
    if n >= 1:
        sweep = _sweep_small if n < _VECTOR_MIN_N else _sweep_large
        best, best_kl = sweep(arr, code, best, kmax)
    if best_kl is None:
        g = DictionaryGrammar(code.m, (tuple(int(x) for x in arr),))
        return TransformResult(grammar=g, code_bits=best, num_rules=1,
                               block_len=0, shift=0)
    k, l = best_kl
    grammar = _build_block_grammar(arr, code, k, l)
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
