"""Symbol sources for the experiments: synthetic processes and corpus files.

All synthetic generators run on numpy's Philox engine (a documented 64-bit
counter-based generator), so a (spec, seed) pair pins the output stream
bit-for-bit across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grammar import _symbol_sequence, symbol_dtype


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class SourceSpec:
    """Description of a symbol stream for the experiment harness."""

    kind: str  # bernoulli | markov | corpus | permuted-corpus
    probs: tuple[float, ...] | None = None
    transitions: tuple[tuple[float, ...], ...] | None = None
    path: str | None = None
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in {"bernoulli", "markov", "corpus", "permuted-corpus"}:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "bernoulli" and self.probs is None:
            raise ValueError("bernoulli source needs a probability vector")
        if self.kind == "markov" and self.transitions is None:
            raise ValueError("markov source needs a transition table")
        if self.kind in {"corpus", "permuted-corpus"} and not self.path:
            raise ValueError(f"{self.kind} source needs a file path")
        if not self.label:
            object.__setattr__(self, "label", self.kind)


def _check_prob_vector(p: np.ndarray) -> None:
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probability vector must be one dimensional and nonempty")
    # NaN fails every comparison, so it is refused before them
    if not np.isfinite(p).all() or p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be finite, nonnegative and sum to 1")


def gen_bernoulli(p, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. symbols 1..len(p) with the given probabilities."""
    p = np.asarray(p, dtype=float)
    _check_prob_vector(p)
    if n < 0:
        raise ValueError("length must be nonnegative")
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    draws = _rng(seed).random(n)
    symbols = np.searchsorted(cdf, draws, side="right") + 1
    return symbols.astype(symbol_dtype(p.size))


def gen_markov(transitions, n: int, seed: int) -> np.ndarray:
    """First-order chain over symbols 1..m given row-stochastic transitions.

    The first symbol is uniform over 1..m.
    """
    P = np.asarray(transitions, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
        raise ValueError("transition table must be square")
    for row in P:
        _check_prob_vector(row)
    m = P.shape[0]
    if n < 0:
        raise ValueError("length must be nonnegative")
    out = np.empty(n, dtype=symbol_dtype(m))
    if n == 0:
        return out
    draws = _rng(seed).random(n)
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    init_cdf = np.cumsum(np.full(m, 1.0 / m))
    init_cdf[-1] = 1.0
    state = int(np.searchsorted(init_cdf, draws[0], side="right"))
    out[0] = state + 1
    for i in range(1, n):
        state = int(np.searchsorted(cum[state], draws[i], side="right"))
        out[i] = state + 1
    return out


def first_appearance_alphabet(data: bytes) -> list[int]:
    """Distinct byte values of ``data`` in order of first appearance."""
    arr = np.frombuffer(data, dtype=np.uint8)
    if arr.size == 0:
        return []
    values, first = np.unique(arr, return_index=True)
    return [int(v) for v in values[np.argsort(first)]]


def map_bytes_to_symbols(data: bytes, alphabet: list[int]) -> np.ndarray:
    """Translate raw bytes to symbols 1..m using a first-appearance alphabet."""
    lookup = np.zeros(256, dtype=symbol_dtype(len(alphabet) or 1))
    lookup[alphabet] = np.arange(1, len(alphabet) + 1)
    symbols = lookup[np.frombuffer(data, dtype=np.uint8)]
    if not symbols.all():  # symbol 0 marks a byte outside the alphabet
        raise ValueError(f"byte {data[int(symbols.argmin())]:#04x} is not in the alphabet")
    return symbols


def ingest_corpus(path) -> tuple[np.ndarray, list[int]]:
    """Read a file as bytes mapped to symbols 1..m by first appearance.

    Returns the symbol stream and the alphabet (byte value of each symbol,
    in symbol order).  An empty file yields an empty stream and an empty
    alphabet.  There is no case folding or whitespace handling: the raw byte
    process is preserved, and ingesting the same file twice gives identical
    results.
    """
    data = Path(path).read_bytes()
    alphabet = first_appearance_alphabet(data)
    return map_bytes_to_symbols(data, alphabet), alphabet


def permute_characters(u, seed: int) -> np.ndarray:
    """Uniform random shuffle of the symbols of ``u`` (Fisher-Yates, seeded).

    Preserves the multiset of symbols exactly.  ``u`` takes the transform's
    input form: a one-dimensional integer array or a list of ints.
    """
    arr = _symbol_sequence(u)
    if not arr.size:  # permutation refuses an empty read-only array
        return arr.copy()
    return _rng(seed).permutation(arr)


def realize(spec: SourceSpec, n_max: int) -> tuple[np.ndarray, int]:
    """Up to ``n_max`` symbols of a source (full file for corpora), and m.

    m is the number of terminal symbols the stream is drawn from: the
    length of the probability vector or of the transition table, or the
    size of a corpus file's alphabet (0 for an empty file).
    """
    if spec.kind == "bernoulli":
        return gen_bernoulli(spec.probs, n_max, spec.seed), len(spec.probs)
    if spec.kind == "markov":
        return gen_markov(spec.transitions, n_max, spec.seed), len(spec.transitions)
    symbols, alphabet = ingest_corpus(spec.path)
    if spec.kind == "permuted-corpus":
        symbols = permute_characters(symbols, spec.seed)
    return symbols, len(alphabet)
