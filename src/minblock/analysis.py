"""Information measurements built on the minimal block code.

Pointwise mutual information of the code, the rule-count bound on it, block
entropy estimates, power-law growth regression, and the ranked-probability
sanity check used throughout the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .codes import SymbolCode
from .grammar import symbol_dtype
from .transform import TransformResult, minimal_block_transform


@dataclass(frozen=True)
class GrowthSeries:
    """(n, statistic) pairs at increasing n, input to the growth regression."""

    ns: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        ns = tuple(int(n) for n in self.ns)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "values", values)
        if len(ns) != len(values):
            raise ValueError("ns and values must have equal length")
        if len(ns) < 2:
            raise ValueError("a growth series needs at least two points")
        if any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("ns must be strictly increasing and >= 1")
        if any(v < 0 for v in values):
            raise ValueError("values must be nonnegative")


@dataclass(frozen=True)
class ProbabilityTable:
    """Probabilities of disjoint events; they may sum to less than one."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        _validate_probs(probs)


def _validate_probs(probs) -> None:
    arr = np.asarray(probs, dtype=float)
    if arr.size and (arr.min() < -1e-12 or arr.max() > 1 + 1e-12):
        raise ValueError("probabilities must lie in [0, 1]")
    if arr.sum() > 1 + 1e-9:
        raise ValueError("probabilities of disjoint events must sum to at most 1")


def pointwise_mi(code: SymbolCode, u, v) -> int:
    """Code length of the parts minus code length of the concatenation.

    May be negative; always bounded above by :func:`mi_bound` of the
    concatenation's transform whenever that grammar has secondary rules.
    """
    au = np.asarray(u, dtype=symbol_dtype(code.m))
    av = np.asarray(v, dtype=symbol_dtype(code.m))
    bu = minimal_block_transform(code, au).code_bits
    bv = minimal_block_transform(code, av).code_bits
    buv = minimal_block_transform(code, np.concatenate([au, av])).code_bits
    return bu + bv - buv


def mi_bound(result: TransformResult) -> int:
    """Rule-count bound on the pointwise mutual information of a split.

    ``num_rules * (block_len + 1) * fixed_len`` for the transform of the
    concatenation; degenerates to one fixed codeword for the terminal
    grammar.
    """
    fl = SymbolCode(result.m).fixed_len
    return result.num_rules * (result.block_len + 1) * fl


def line_fit(xs, ys) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through the points (x, y)."""
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def hilberg_exponent(series, *, min_n: int | None = None, max_n: int | None = None) -> float:
    """Log-log regression slope of a growth series, clipped below at zero.

    Points with value 0 are dropped; the fit window may be narrowed with
    ``min_n``/``max_n``.  Raises ValueError with fewer than two usable
    points.

    The value is a finite-window estimate of the Hilberg exponent (the
    limsup of ``log V(n) / log n``), not the exponent itself.  It is not
    bounded by 1 even when every value satisfies ``V <= n``: a statistic
    that steps up inside the window, such as the rule count of the minimal
    block code when the chosen block length switches, can push it above 1.
    """
    if isinstance(series, GrowthSeries):
        pairs = list(zip(series.ns, series.values))
    else:
        pairs = [(int(n), float(v)) for n, v in series]
    pairs = [
        (n, v)
        for n, v in pairs
        if v > 0 and (min_n is None or n >= min_n) and (max_n is None or n <= max_n)
    ]
    if len(pairs) < 2:
        raise ValueError("need at least two positive points to fit a slope")
    slope, _ = line_fit(np.log2([n for n, _ in pairs]), np.log2([v for _, v in pairs]))
    return max(slope, 0.0)


def _block_counts(x, k: int, overlapping: bool) -> tuple[np.ndarray, np.ndarray]:
    """Distinct k-blocks of ``x``, one per row in ascending order, and their counts.

    The blocks are the overlapping windows, or the disjoint parse at phase 0.
    """
    arr = np.asarray(x)
    n = arr.size
    if not 1 <= k <= n:
        raise ValueError(f"block length must lie in 1..{n}")
    if overlapping:
        windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    else:
        p = n // k
        windows = arr[: p * k].reshape(p, k)
    return np.unique(windows, axis=0, return_counts=True)


def block_entropy(x, k: int, *, overlapping: bool = True) -> float:
    """Plug-in entropy in bits of the empirical k-block distribution.

    Counts overlapping windows by default (``overlapping=False`` switches to
    the disjoint parse at phase 0).
    """
    counts = _block_counts(x, k, overlapping)[1]
    p = counts / counts.sum()
    return float(-(p @ np.log2(p)))


def empirical_block_distribution(x, k: int, *, overlapping: bool = True) -> dict[tuple[int, ...], float]:
    """Empirical probabilities of the k-blocks of ``x`` as a mapping."""
    blocks, counts = _block_counts(x, k, overlapping)
    total = counts.sum()
    return {
        tuple(int(s) for s in block): int(c) / total
        for block, c in zip(blocks, counts)
    }


def zipf_check(table) -> int | None:
    """Verify that ranked probabilities sit below the harmonic bound 1/rank.

    Accepts a :class:`ProbabilityTable`, a mapping to probabilities, or a
    bare iterable of probabilities.  Returns None when the bound holds and
    the first violating 1-based rank otherwise (cannot happen for genuine
    probabilities of disjoint events, which is the point of the check).
    """
    if isinstance(table, ProbabilityTable):
        probs = table.probs
    elif isinstance(table, Mapping):
        probs = tuple(table.values())
    elif isinstance(table, Iterable):
        probs = tuple(float(p) for p in table)
    else:
        raise TypeError("expected probabilities")
    _validate_probs(probs)
    ranked = sorted(probs, reverse=True)
    for rank, p in enumerate(ranked, start=1):
        # the slack shields against normalization round-off (a few ulps);
        # genuine violations overshoot by far more
        if p * rank > 1.0 + 1e-12:
            return rank
    return None
