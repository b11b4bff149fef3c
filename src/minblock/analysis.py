"""Information measurements built on the minimal block code.

Pointwise mutual information of the code, the rule-count bound on it, block
entropy estimates, power-law growth regression, and the ranked-probability
sanity check used throughout the test suite.
"""

from __future__ import annotations

import numpy as np

from .codes import SymbolCode
from .transform import TransformResult, _as_symbols, _split_transforms
# looked up here by the traced benchmark run (TRACED in perfbench/workloads.py)
from .transform import minimal_block_transform  # noqa: F401


def pointwise_mi(code: SymbolCode, u, v) -> int:
    """Code length of the parts minus code length of the concatenation.

    May be negative; always bounded above by :func:`mi_bound` of the
    concatenation's transform whenever that grammar has secondary rules.
    Each part must be an input the transform accepts: a part with a symbol
    outside 1..m, or of non-integers, raises its ``ValueError``.

    One suffix index of the concatenation serves all three code lengths: the
    search reads each part as a range of it.  Calls at cuts of one string
    share that index and the search of the whole: the last concatenation is
    held with both, about 17 bytes a symbol, until a call with another
    string or alphabet replaces it.
    """
    return _mi_and_joint(code, u, v)[0]


def _mi_and_joint(code: SymbolCode, u, v) -> tuple[int, TransformResult]:
    """:func:`pointwise_mi` of the split and the transform of the concatenation."""
    au = _as_symbols(u, code.m)
    av = _as_symbols(v, code.m)
    bu, bv, joint = _split_transforms(code, np.concatenate([au, av]), au.size)
    return bu + bv - joint.code_bits, joint


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


def hilberg_exponent(pairs) -> float:
    """Log-log regression slope of (n, value) pairs, clipped below at zero.

    The n must be strictly increasing and at least 1, and every value
    finite.  Points with value 0 or less are dropped.  Raises ValueError
    with fewer than two usable points.

    The value is a finite-window estimate of the Hilberg exponent (the
    limsup of ``log V(n) / log n``), not the exponent itself.  It is not
    bounded by 1 even when every value satisfies ``V <= n``: a statistic
    that steps up inside the window, such as the rule count of the minimal
    block code when the chosen block length switches, can push it above 1.
    """
    pairs = [(int(n), float(v)) for n, v in pairs]
    ns = [n for n, _ in pairs]
    if any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing and >= 1")
    if not np.isfinite([v for _, v in pairs]).all():
        raise ValueError("values must be finite")
    pairs = [(n, v) for n, v in pairs if v > 0]
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
    # + 0.0 turns the -0.0 of one block of probability 1 into 0.0
    return float(-(p @ np.log2(p))) + 0.0


def empirical_block_distribution(x, k: int, *, overlapping: bool = True) -> dict[tuple[int, ...], float]:
    """Empirical probabilities of the k-blocks of ``x`` as a mapping."""
    blocks, counts = _block_counts(x, k, overlapping)
    total = counts.sum()
    return {
        tuple(int(s) for s in block): int(c) / total
        for block, c in zip(blocks, counts)
    }


def zipf_check(probs) -> int | None:
    """Verify that ranked probabilities sit below the harmonic bound 1/rank.

    Takes an iterable of probabilities (pass a mapping's ``.values()``).
    Returns None when the bound holds and the first violating 1-based rank
    otherwise (cannot happen for genuine probabilities of disjoint events,
    which is the point of the check).
    """
    probs = [float(p) for p in probs]
    arr = np.asarray(probs)
    if not ((arr >= -1e-12) & (arr <= 1 + 1e-12)).all():  # NaN fails both
        raise ValueError("probabilities must lie in [0, 1]")
    if arr.sum() > 1 + 1e-9:
        raise ValueError("probabilities of disjoint events must sum to at most 1")
    ranked = sorted(probs, reverse=True)
    for rank, p in enumerate(ranked, start=1):
        # the slack shields against normalization round-off (a few ulps);
        # genuine violations overshoot by far more
        if p * rank > 1.0 + 1e-12:
            return rank
    return None
