"""Symbol code: exact lengths, prefix freeness, Kraft mass, round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minblock import (
    BitReader,
    BitString,
    CorruptionError,
    SymbolCode,
    TruncationError,
    decode_symbol,
    encode_symbol,
    symbol_length,
)
from minblock.codes import (
    _CLASS_WIDTHS,
    _DELTA_HEADS,
    _DELTA_WINDOW,
    _LOW_BITS,
    _rank_length_sum,
    rank_length,
)


@pytest.mark.parametrize(
    "m,expected", [(2, 3), (3, 4), (27, 6), (64, 8), (255, 10), (256, 10)]
)
def test_fixed_len(m, expected):
    assert SymbolCode(m).fixed_len == expected


def test_fixed_class_lengths():
    assert symbol_length(SymbolCode(2), -1) == 3
    assert symbol_length(SymbolCode(27), 0) == 6
    code = SymbolCode(5)
    for n in range(-1, 6):
        assert symbol_length(code, n) == code.fixed_len


@pytest.mark.parametrize(
    "offset,expected",
    [(1, 3), (2, 6), (3, 6), (4, 7), (7, 7), (8, 10), (15, 10), (16, 11)],
)
def test_open_class_lengths(offset, expected):
    code = SymbolCode(2)
    assert symbol_length(code, code.m + offset) == expected


def test_open_class_length_matches_closed_form():
    # floor(log2 j) + 2*floor(log2(floor(log2 j)+1)) + 3, via float log2
    code = SymbolCode(2)
    for j in range(1, 5000):
        t = math.floor(math.log2(j)) if j > 1 else 0
        want = t + 2 * math.floor(math.log2(t + 1)) + 3
        assert symbol_length(code, code.m + j) == want


def test_encoded_length_equals_symbol_length():
    for m in (2, 3, 27):
        code = SymbolCode(m)
        for n in list(range(-1, m + 1)) + [m + j for j in range(1, 3000)]:
            assert len(encode_symbol(code, n)) == symbol_length(code, n)


def test_known_codewords():
    code = SymbolCode(2)
    assert encode_symbol(code, -1).to01() == "000"
    assert encode_symbol(code, 0).to01() == "001"
    assert encode_symbol(code, 1).to01() == "010"
    assert encode_symbol(code, 2).to01() == "011"
    assert encode_symbol(code, 3).to01() == "101"
    assert encode_symbol(code, 4).to01() == "100100"


def test_decode_concatenated_codewords():
    code = SymbolCode(2)
    bits = encode_symbol(code, 3)
    encode_symbol(code, 4, bits)
    reader = BitReader(bits)
    assert decode_symbol(code, reader) == 3
    assert decode_symbol(code, reader) == 4
    assert reader.remaining == 0


def test_round_trip_dense_and_sparse():
    rng = np.random.Generator(np.random.Philox(3))
    for m in (2, 27, 255):
        code = SymbolCode(m)
        values = list(range(-1, m + 1)) + [m + j for j in range(1, 2000)]
        values += [m + int(j) for j in rng.integers(1, 10**6, 200)]
        bits = BitString()
        for n in values:
            encode_symbol(code, n, bits)
        reader = BitReader(bits)
        assert [decode_symbol(code, reader) for _ in values] == values
        assert reader.remaining == 0


@settings(max_examples=200)
@given(st.integers(min_value=-1, max_value=10**9))
def test_round_trip_property(n):
    code = SymbolCode(17)
    assert decode_symbol(code, BitReader(encode_symbol(code, n))) == n


def test_lengths_nondecreasing_above_m():
    code = SymbolCode(7)
    lengths = [symbol_length(code, code.m + j) for j in range(1, 100_000)]
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))


def test_prefix_free_sorted_adjacent():
    # in a sorted list, a prefix would sit right before an extension
    code = SymbolCode(3)
    words = [encode_symbol(code, n).to01() for n in range(-1, code.m + 1)]
    words += [encode_symbol(code, code.m + j).to01() for j in range(1, 10_000)]
    words.sort()
    assert len(set(words)) == len(words)
    for a, b in zip(words, words[1:]):
        assert not b.startswith(a)


def test_kraft_sum_below_one():
    for m in (2, 3, 27):
        code = SymbolCode(m)
        total = Fraction(m + 2, 2**code.fixed_len)
        for j in range(1, 50_000):
            total += Fraction(1, 2 ** symbol_length(code, code.m + j))
        assert total <= Fraction(3, 4)


def test_length_bound_constant_is_tight():
    # the constant c = 5 of oracle.universality_bound: the supremum of
    # |code(m + j)| - log2 j - 2 log2 log2 j over j >= 2
    code = SymbolCode(2)
    worst = 0.0
    for j in range(2, 200_000):
        slack = symbol_length(code, code.m + j) - math.log2(j)
        if j > 2:
            slack -= 2 * math.log2(math.log2(j))
        worst = max(worst, slack)
    assert worst == 5
    # attained exactly at offset 2: 6 bits vs log2(2) = 1
    assert symbol_length(code, code.m + 2) - 1.0 == 5


def test_domain_errors():
    code = SymbolCode(2)
    with pytest.raises(ValueError):
        symbol_length(code, -2)
    with pytest.raises(ValueError):
        encode_symbol(code, -2)
    with pytest.raises(ValueError):
        SymbolCode(1)
    with pytest.raises(ValueError):
        rank_length(0)
    with pytest.raises(TypeError):  # once silently m = 2
        SymbolCode(2.5)
    assert SymbolCode(np.int64(3)) == SymbolCode(3)
    assert type(SymbolCode(np.uint8(3)).m) is int
    # offsets and symbols too take any integer, numpy's included, and
    # refuse a float
    code = SymbolCode(3)
    assert rank_length(np.int64(5)) == rank_length(5) == 7
    assert symbol_length(code, np.int64(9)) == symbol_length(code, 9)
    assert encode_symbol(code, np.int64(9)) == encode_symbol(code, 9)
    for call in (lambda: rank_length(5.0), lambda: symbol_length(code, 9.0),
                 lambda: encode_symbol(code, 9.0)):
        with pytest.raises(TypeError):
            call()


def test_rank_length_sum_is_the_running_sum():
    running = np.cumsum([0] + [rank_length(j) for j in range(1, 2**16 + 1)])
    assert [_rank_length_sum(s) for s in range(2**16 + 1)] == running.tolist()
    # beyond, across each class boundary: class t is 2**t offsets of one length
    below = 0  # the sum up to 2**t - 1
    for t in range(63):
        width = rank_length(2**t)
        assert _rank_length_sum(2**t - 1) == below
        assert _rank_length_sum(2**t) == below + width
        if t:
            assert _rank_length_sum(2**t + 1) == below + 2 * width
        below += 2**t * width
    assert _rank_length_sum(2**63 - 1) == below


def test_class_tables_agree_with_encode_symbol():
    code = SymbolCode(3)
    rng = np.random.Generator(np.random.Philox(16))
    for nbits in range(1, 64):
        low = nbits - 1
        j = 1 << low | int(rng.integers(0, 1 << low)) if low else 1
        word = encode_symbol(code, code.m + j).to01()
        width = len(word)
        assert _CLASS_WIDTHS[low] == width
        assert _DELTA_WINDOW[int(word[:16].ljust(16, "0"), 2)] == width
        assert _LOW_BITS[width] == low
        # past 64 bits a codeword has no head
        assert int(_DELTA_HEADS[width]) == (int(word, 2) - j if width <= 64 else 0)
    # no delta codeword opens with 0, 11, or 10 and six zeros (nbits > 63)
    assert not _DELTA_WINDOW[: 1 << 15].any() and not _DELTA_WINDOW[3 << 14 :].any()
    assert not _DELTA_WINDOW[1 << 15 : (1 << 15) + (1 << 8)].any()


def test_truncation_and_corruption():
    code = SymbolCode(2)
    with pytest.raises(TruncationError):
        decode_symbol(code, BitReader(BitString()))
    with pytest.raises(TruncationError):
        decode_symbol(code, BitReader(BitString.from01("10")))
    with pytest.raises(CorruptionError):
        decode_symbol(code, BitReader(BitString.from01("1100")))
    # m=3 has unassigned leaves in the fixed class: values 5..7
    with pytest.raises(CorruptionError):
        decode_symbol(SymbolCode(3), BitReader(BitString.from01("0101")))
