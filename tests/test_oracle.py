"""Brute-force oracle: fixtures, agreement with the transform, the bound."""

import math

import numpy as np
import pytest

from minblock import SymbolCode, minimal_block_transform
from minblock.analysis import empirical_block_distribution
from minblock.oracle import MAX_DISTINCT, MAX_N, brute_force_min_block, universality_bound


def test_oracle_fixtures():
    code = SymbolCode(2)
    assert brute_force_min_block(code, [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]) == 30
    assert brute_force_min_block(code, [1, 2, 2, 1]) == 18
    assert brute_force_min_block(code, [1]) == 9


def test_oracle_budget():
    assert (MAX_N, MAX_DISTINCT) == (10, 6)
    with pytest.raises(ValueError, match="string length 11 exceeds"):
        brute_force_min_block(SymbolCode(2), [1] * 11)
    # 7 distinct 1-blocks
    with pytest.raises(ValueError, match="7 distinct blocks exceed"):
        brute_force_min_block(SymbolCode(8), [1, 2, 3, 4, 5, 6, 7])


def test_oracle_agrees_on_random_samples():
    rng = np.random.Generator(np.random.Philox(41))
    code2, code3 = SymbolCode(2), SymbolCode(3)
    for _ in range(60):
        u = list(map(int, rng.integers(1, 3, int(rng.integers(1, 11)))))
        assert brute_force_min_block(code2, u) == minimal_block_transform(code2, u).code_bits
    for _ in range(40):
        u = list(map(int, rng.integers(1, 4, int(rng.integers(1, 10)))))
        assert brute_force_min_block(code3, u) == minimal_block_transform(code3, u).code_bits


def test_universality_bound_uniform_distribution():
    code = SymbolCode(2)
    k, n = 2, 16
    x = [1, 2] * 8
    pi = {b: 1 / 4 for b in [(1, 1), (1, 2), (2, 1), (2, 2)]}
    fl = code.fixed_len
    c_k = (2**k * (k + 1) + 2 * k + 2) * fl
    c_nk = c_k + (n / k) * (2 * math.log2(k) + 5)
    want = c_nk + (n - k + 1) * math.log2(2**k) / k
    assert universality_bound(code, x, k, pi) == pytest.approx(want)


def test_universality_bound_deterministic_string():
    code = SymbolCode(2)
    k, n = 3, 12
    x = [1] * n
    pi = {(1, 1, 1): 1.0}
    fl = code.fixed_len
    c_k = (2**k * (k + 1) + 2 * k + 2) * fl
    c_nk = c_k + (n / k) * (2 * math.log2(k * 1.0) + 5)
    assert universality_bound(code, x, k, pi) == pytest.approx(c_nk)


def test_universality_bound_vacuous_on_zero_probability():
    code = SymbolCode(2)
    assert universality_bound(code, [1, 2, 1], 1, {(1,): 1.0}) == math.inf


def test_universality_bound_domain_errors():
    code = SymbolCode(2)
    pi = {(1,): 0.5, (2,): 0.5}
    with pytest.raises(ValueError, match="block length must be >= 1"):
        universality_bound(code, [1, 2], 0, pi)
    with pytest.raises(ValueError, match="block length exceeds the string"):
        universality_bound(code, [1, 2], 3, pi)


def test_universality_bound_respected_on_random_trials():
    rng = np.random.Generator(np.random.Philox(42))
    code = SymbolCode(2)
    for _ in range(60):
        n = int(rng.choice([64, 128, 256]))
        q = 0.1 + 0.8 * rng.random()
        x = (rng.random(n) < q).astype(np.uint8) + 1
        lhs = minimal_block_transform(code, x).code_bits
        for k in (1, 2, 3):
            weights = rng.random(2**k) + 1e-3
            weights /= weights.sum()
            blocks = [
                tuple(1 + ((i >> (k - 1 - t)) & 1) for t in range(k))
                for i in range(2**k)
            ]
            pi = dict(zip(blocks, weights))
            assert lhs <= universality_bound(code, x, k, pi)


def test_universality_bound_accepts_empirical_distribution():
    rng = np.random.Generator(np.random.Philox(43))
    code = SymbolCode(2)
    x = (rng.random(256) < 0.5).astype(np.uint8) + 1
    lhs = minimal_block_transform(code, x).code_bits
    for k in (1, 2, 4):
        pi = empirical_block_distribution(x, k)
        assert lhs <= universality_bound(code, x, k, pi)
