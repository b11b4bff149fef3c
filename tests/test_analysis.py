"""Information measurements: MI and its bound, growth slopes, entropies."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minblock import (
    RankedBlockTable,
    SymbolCode,
    block_entropy,
    empirical_block_distribution,
    hilberg_exponent,
    mi_bound,
    minimal_block_transform,
    pointwise_mi,
    permute_characters,
    zipf_check,
)
from minblock.oracle import brute_force_min_block, universality_bound


def test_pointwise_mi_of_empty_prefix():
    code = SymbolCode(2)
    for v in ([1], [1, 2, 1], [2] * 20):
        assert pointwise_mi(code, [], v) == 2 * code.fixed_len


def test_pointwise_mi_doubling_fixture():
    from reference import reference_min_bits

    code = SymbolCode(2)
    u = [1, 2] * 5
    assert minimal_block_transform(code, u).code_bits == 30
    buv = minimal_block_transform(code, u + u).code_bits
    # doubling lets a 4-block rule cover the whole string: 36 bits
    assert buv == reference_min_bits(code, u + u) == 36
    assert pointwise_mi(code, u, u) == 60 - buv == 24


def test_mi_bound_values():
    code = SymbolCode(2)
    r = minimal_block_transform(code, [1, 2] * 5)
    assert (r.num_rules, r.block_len) == (2, 2)
    assert mi_bound(r) == 2 * 3 * 3
    assert pointwise_mi(code, [1, 2] * 5, [1, 2] * 5) <= mi_bound(
        minimal_block_transform(code, [1, 2] * 10)
    )
    r = minimal_block_transform(code, [1, 2, 2, 1])  # terminal grammar
    assert (r.num_rules, r.block_len) == (1, 0)
    assert mi_bound(r) == code.fixed_len


def test_mi_bound_holds_on_random_splits():
    # the concatenation must be long enough that its grammar has rules.  Runs
    # of cuts of a second string come between those of the first, so most
    # calls reuse the index and search held from the call before, and the
    # first of each run builds them anew; cut 0 and cut n are among the
    # cuts.  Each J is the difference of three transforms of its own
    rng = np.random.Generator(np.random.Philox(31))
    other = np.random.Generator(np.random.Philox(32))
    code = SymbolCode(2)
    s = (rng.random(8192) < 0.5).astype(np.uint8) + 1
    t = (other.random(4096) < 0.2).astype(np.uint8) + 1
    splits = []
    for i in range(25):
        splits.append((s, int(rng.integers(1, s.size))))
        if i % 5 == 4:
            splits.append((s, (0, s.size)[i % 2]))
            splits += [(t, cut) for cut in (0, *other.integers(1, t.size, 3).tolist(), t.size)]
    whole = {id(x): minimal_block_transform(code, x) for x in (s, t)}
    for x, cut in splits:
        j = pointwise_mi(code, x[:cut], x[cut:])
        parts = (minimal_block_transform(code, p).code_bits for p in (x[:cut], x[cut:]))
        assert j == sum(parts) - whole[id(x)].code_bits
        assert j <= mi_bound(whole[id(x)])


@pytest.mark.parametrize(
    "bad",
    [
        np.array([257, 258, 257, 258]),  # above m; 1, 2, 1, 2 as uint8
        np.array([1, -255, 2]),  # negative; 1 as uint8
        np.array([1.7, 1.0]),  # not integers
    ],
)
def test_pointwise_mi_rejects_what_the_transform_rejects(bad):
    code = SymbolCode(2)
    with pytest.raises(ValueError) as rejected:
        minimal_block_transform(code, bad)
    for u, v in ((bad, [1, 2]), ([1, 2], bad)):
        with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
            pointwise_mi(code, u, v)


_SYMBOL_READERS = {
    "block_entropy": lambda x: block_entropy(x, 3),
    "disjoint_block_entropy": lambda x: block_entropy(x, 3, overlapping=False),
    "empirical_block_distribution": lambda x: empirical_block_distribution(
        x, 3, overlapping=False),
    "permute_characters": lambda x: permute_characters(x, 1),
    "brute_force_min_block": lambda x: brute_force_min_block(SymbolCode(2), x),
    "universality_bound": lambda x: universality_bound(
        SymbolCode(2), x, 1, {(1,): 0.5, (2,): 0.5}),
    "from_parse": lambda x: RankedBlockTable.from_parse(x, 1, 0),
}


@pytest.mark.parametrize(
    "bad",
    [
        # once read across its rows, in blocks that span them, or as rows to
        # shuffle, or a numpy error about the window shape, or a TypeError
        # on an unhashable row
        np.array([[1, 2], [1, 2], [2, 1]]),
        np.array([1.0, 2.0, 1.0, 2.0]),  # once counted or shuffled as floats
        np.array([True, False, True]),  # once a table of bool blocks
    ],
)
@pytest.mark.parametrize("read", list(_SYMBOL_READERS.values()), ids=list(_SYMBOL_READERS))
def test_symbol_readers_refuse_what_the_transform_refuses(read, bad):
    with pytest.raises(ValueError) as rejected:
        minimal_block_transform(SymbolCode(2), bad)
    with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
        read(bad)


def test_hilberg_exact_power_laws():
    ns = [2**j for j in range(1, 11)]
    assert hilberg_exponent(zip(ns, [n**0.5 for n in ns])) == pytest.approx(0.5)
    assert hilberg_exponent(zip(ns, [7.0] * len(ns))) == 0.0


def test_hilberg_clips_negative_slopes():
    ns = [2**j for j in range(1, 8)]
    assert hilberg_exponent(zip(ns, [1.0 / n for n in ns])) == 0.0


def test_hilberg_noisy_power_law():
    rng = np.random.Generator(np.random.Philox(32))
    ns = [2**j for j in range(3, 16)]
    values = [n**0.8 * (1 + 0.01 * (2 * rng.random() - 1)) for n in ns]
    assert abs(hilberg_exponent(zip(ns, values)) - 0.8) < 0.05


def test_hilberg_scale_invariance():
    rng = np.random.Generator(np.random.Philox(33))
    ns = [2**j for j in range(2, 12)]
    values = [float(v) for v in rng.random(len(ns)) + 0.5]
    base = hilberg_exponent(zip(ns, values))
    scaled = hilberg_exponent(zip(ns, [123.456 * v for v in values]))
    assert scaled == pytest.approx(base, abs=1e-9)


def test_hilberg_window_and_zero_handling():
    pairs = list(zip((2, 4, 8, 16, 32), (0.0, 2.0, 4.0, 8.0, 16.0)))
    # the zero point is dropped; remaining slope is exactly 1
    assert hilberg_exponent(pairs) == pytest.approx(1.0)
    # a caller narrows the fit window by passing only the pairs inside it
    assert hilberg_exponent(p for p in pairs if 4 <= p[0] <= 16) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hilberg_exponent(zip([4, 8], [0.0, 1.0]))
    with pytest.raises(ValueError):
        hilberg_exponent([(4, 1.0)])


@pytest.mark.parametrize("pairs", [
    [(64, 1.0), (64, 3.0)],
    [(1, 1.0), (1, 2.0)],
    [(8, 1.0), (4, 2.0)],
    [(0, 1.0), (4, 2.0)],
    [(-2, 1.0), (4, 2.0)],
])
def test_hilberg_rejects_repeated_or_nonpositive_n(pairs):
    with pytest.raises(ValueError, match="strictly increasing"):
        hilberg_exponent(pairs)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), float("-inf")])
def test_hilberg_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        hilberg_exponent([(2, 1.0), (4, bad), (8, 4.0)])


def test_block_entropy_constant_string():
    # one block of probability 1: +0.0, not the -0.0 that == 0.0 cannot tell
    for k in (1, 2, 5):
        for overlapping in (True, False):
            h = block_entropy([1] * 64, k, overlapping=overlapping)
            assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_block_entropy_all_blocks_equal():
    # 11221: the four overlapping 2-blocks are all distinct, entropy log2(4)
    assert block_entropy([1, 1, 2, 2, 1], 2) == pytest.approx(2.0)
    # 1122112211221: every 2-block appears exactly 3 times
    x = ([1, 1, 2, 2] * 4)[:13]
    assert block_entropy(x, 2) == pytest.approx(2.0)


def test_block_entropy_bernoulli_unigram():
    from minblock.sources import gen_bernoulli

    x = gen_bernoulli([0.5, 0.5], 1 << 20, seed=9)
    assert abs(block_entropy(x, 1) - 1.0) < 0.01


def test_block_entropy_domain_errors():
    with pytest.raises(ValueError):
        block_entropy([1, 2], 3)
    with pytest.raises(ValueError):
        block_entropy([1, 2], 0)


def test_block_entropy_disjoint_variant():
    x = [1, 2, 1, 2, 1, 2, 1, 2]
    assert block_entropy(x, 2, overlapping=False) == 0.0
    assert block_entropy(x, 2, overlapping=True) == pytest.approx(
        -(4 / 7) * np.log2(4 / 7) - (3 / 7) * np.log2(3 / 7)
    )


def test_empirical_distribution_sums_to_one():
    rng = np.random.Generator(np.random.Philox(34))
    x = rng.integers(1, 3, 500)
    for overlapping in (True, False):
        dist = empirical_block_distribution(x, 3, overlapping=overlapping)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(len(b) == 3 for b in dist)


def test_zipf_fixtures():
    assert zipf_check([0.5, 0.3, 0.2]) is None
    assert zipf_check((0.25, 0.25, 0.25, 0.25)) is None
    assert zipf_check({"a": 0.4, "b": 0.35, "c": 0.2}.values()) is None
    # the bound is a theorem for disjoint events, so a violation can only
    # slip in through the sum tolerance; the witness must point at it
    eps = 1e-11
    assert zipf_check([0.5 + eps, 0.5 + eps]) == 2


def test_zipf_uniform_equality_edge():
    for n in (2, 3, 7, 49, 128):
        assert zipf_check([1.0 / n] * n) is None


def test_zipf_domain_errors():
    with pytest.raises(ValueError):
        zipf_check([0.7, 0.7])  # sums above one
    with pytest.raises(ValueError):
        zipf_check([-0.1, 0.5])
    with pytest.raises(ValueError):
        zipf_check((1.2,))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            zipf_check([0.5, bad])


@settings(max_examples=200)
@given(
    st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=30)
)
def test_zipf_holds_for_any_subprobability_vector(raw):
    total = sum(raw)
    if total > 0:
        probs = [x / max(total, 1.0) for x in raw]
    else:
        probs = raw
    assert zipf_check(probs) is None


def test_zipf_on_transform_tables():
    rng = np.random.Generator(np.random.Philox(35))
    for _ in range(30):
        u = list(map(int, rng.integers(1, 3, int(rng.integers(10, 200)))))
        k = int(rng.integers(1, 4))
        if len(u) < k:
            continue
        table = RankedBlockTable.from_parse(u, k, 0)
        probs = [c / (len(u) // k) for _, c in table.entries]
        assert zipf_check(probs) is None
