"""Transform: parse costs, global optimality, round trips, determinism."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minblock import (
    DictionaryGrammar,
    NonBlockGrammarWarning,
    RankedBlockTable,
    SymbolCode,
    block_cost,
    compress,
    decode,
    decompress,
    encode,
    encode_grammar,
    grammar_code_length,
    minimal_block_transform,
)
from minblock import transform
from minblock.analysis import mi_bound, pointwise_mi
from minblock.cli import parse_source, run_sweep
from minblock.grammar import symbol_dtype
from minblock.transform import (
    _as_symbols,
    _build_block_grammar,
    _floor,
    _kgram_classes,
    _phase_duplicates,
    _rank_length_table,
    _reach_order,
    _repeat_reach,
    _suffix_index,
)

from reference import reference_min_bits


def _random_string(rng, m, n):
    return rng.integers(1, m + 1, n).astype(np.uint16)


def test_ranked_table_from_parse():
    table = RankedBlockTable.from_parse([1, 2, 1, 2, 1, 2, 1, 2, 1, 2], 2, 0)
    assert table.entries == (((1, 2), 5),)
    table = RankedBlockTable.from_parse([1, 2, 2, 1], 2, 0)
    assert table.entries == (((1, 2), 1), ((2, 1), 1))  # tie broken by value
    assert table.total == 2


def test_ranked_table_validation():
    with pytest.raises(ValueError):
        RankedBlockTable((((1,), 1), ((2,), 2)))  # ascending counts
    with pytest.raises(ValueError):
        RankedBlockTable((((2,), 1), ((1,), 1)))  # tie out of value order
    with pytest.raises(ValueError):
        RankedBlockTable((((1,), 0),))


def test_block_cost_fixtures():
    code = SymbolCode(2)
    u = [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]
    assert block_cost(code, RankedBlockTable.from_parse(u, 2, 0), 2, 0, 0) == 30
    assert block_cost(code, RankedBlockTable.from_parse(u, 1, 0), 1, 0, 0) == 63
    # empty table: bare terminal runs
    assert block_cost(code, RankedBlockTable(()), 5, 4, 3) == (7 + 2) * 3


def test_block_cost_preconditions():
    code = SymbolCode(2)
    table = RankedBlockTable.from_parse([1, 2, 1, 2], 2, 0)
    with pytest.raises(ValueError):
        block_cost(code, table, 2, 2, 0)  # head run not shorter than k
    with pytest.raises(ValueError):
        block_cost(code, table, 3, 0, 0)  # table blocks are not 3-blocks


def test_cost_invariant_under_equal_count_reordering():
    # swapping equal-count blocks across ranks cannot change the total
    from minblock import rank_length

    code = SymbolCode(2)
    table = RankedBlockTable((((1, 2), 3), ((1, 1), 2), ((2, 1), 2)))
    cost = block_cost(code, table, 2, 0, 0)
    counts_swapped = [3, 2, 2]  # ranks 2 and 3 exchanged between equal counts
    ref_term = sum(c * rank_length(i + 1) for i, c in enumerate(counts_swapped))
    swapped_total = 3 * (2 + 1) * code.fixed_len + 2 * code.fixed_len + ref_term
    assert cost == swapped_total
    # the table itself rejects orderings that break the deterministic rank
    with pytest.raises(ValueError):
        RankedBlockTable((((1, 2), 3), ((2, 1), 2), ((1, 1), 2)))


def test_transform_fixtures():
    code = SymbolCode(2)
    r = minimal_block_transform(code, [1, 2, 1, 2, 1, 2, 1, 2, 1, 2])
    assert (r.code_bits, r.block_len, r.num_rules, r.shift) == (30, 2, 2, 0)
    r = minimal_block_transform(code, [])
    assert (r.code_bits, r.num_rules, r.block_len) == (6, 1, 0)
    r = minimal_block_transform(code, [1, 2, 2, 1])
    assert (r.code_bits, r.num_rules, r.block_len) == (18, 1, 0)


def test_transform_alphabet_violation():
    code = SymbolCode(2)
    with pytest.raises(ValueError):
        minimal_block_transform(code, [1, 3])
    with pytest.raises(ValueError):
        minimal_block_transform(code, [0, 1])


def test_code_bits_matches_materialized_grammar():
    rng = np.random.Generator(np.random.Philox(21))
    code = SymbolCode(3)
    for _ in range(50):
        u = _random_string(rng, 3, int(rng.integers(0, 400)))
        r = minimal_block_transform(code, u)
        assert grammar_code_length(code, r.dictionary) == r.code_bits
        assert len(encode_grammar(code, r.dictionary)) == r.code_bits


def test_terminal_grammar_upper_bound():
    rng = np.random.Generator(np.random.Philox(22))
    for m in (2, 3, 27):
        code = SymbolCode(m)
        for _ in range(40):
            u = _random_string(rng, m, int(rng.integers(0, 300)))
            r = minimal_block_transform(code, u)
            assert r.code_bits <= (len(u) + 2) * code.fixed_len


def test_matches_reference_sweep():
    rng = np.random.Generator(np.random.Philox(23))
    cases = []
    for n in (16, 30, 48, 64, 100):
        cases.append(("flat", [1] * n, 2))
        cases.append(("period2", ([1, 2] * n)[:n], 2))
        cases.append(("period3", ([1, 1, 2] * n)[:n], 2))
        half = list(map(int, _random_string(rng, 2, n // 2)))
        cases.append(("doubled", half + half, 2))
        piece = list(map(int, _random_string(rng, 2, 21)))
        cases.append(("tiled21", (piece * n)[:n], 2))
        cases.append(("random2", list(map(int, _random_string(rng, 2, n))), 2))
        cases.append(("random3", list(map(int, _random_string(rng, 3, n))), 3))
        cases.append(("random27", list(map(int, _random_string(rng, 27, n))), 27))
        for m in (300, 70000):
            # a few symbols near the top of the alphabet, so blocks repeat
            letters = rng.integers(1, m + 1, 3).tolist() + [m]
            cases.append((f"random{m}", [int(rng.choice(letters)) for _ in range(n)], m))
    for label, u, m in cases:
        code = SymbolCode(m)
        got = minimal_block_transform(code, u).code_bits
        want = reference_min_bits(code, u)
        assert got == want, (label, len(u), got, want)


@st.composite
def _indexed_strings(draw):
    m = draw(st.sampled_from([2, 3, 300, 70000]))
    letters = draw(st.lists(st.integers(1, m), min_size=1, max_size=8, unique=True))
    return draw(st.lists(st.sampled_from(letters), max_size=300)), m


def _assert_index_exact(u, m):
    """The suffix index of ``u`` against naive suffix sorting, LCP and k-grams."""
    n = len(u)
    rank, lcp = _suffix_index(_as_symbols(u, m))
    sa = np.argsort(rank).tolist()
    assert sa == sorted(range(n), key=lambda i: u[i:])
    assert sorted(rank.tolist()) == list(range(n))

    def common(a, b):
        c = 0
        while a + c < n and b + c < n and u[a + c] == u[b + c]:
            c += 1
        return c

    assert lcp.tolist() == [0][:n] + [common(sa[i - 1], sa[i]) for i in range(1, n)]
    reach = _repeat_reach(rank, lcp)
    for k in range(1, max(lcp.tolist(), default=0) + 2):
        grams = [tuple(u[i : i + k]) for i in range(n - k + 1)]
        counts = Counter(grams)
        short = [False] * (n - len(grams))  # suffixes shorter than k
        assert (reach >= k).tolist() == [counts[g] >= 2 for g in grams] + short
        classes = _kgram_classes(lcp, k)[rank][: len(grams)].tolist()
        ordered = sorted(zip(classes, grams))
        for (c0, g0), (c1, g1) in zip(ordered, ordered[1:]):
            assert (c0 == c1) == (g0 == g1) and g0 <= g1
    return lcp


@settings(max_examples=100, deadline=None)
@given(_indexed_strings())
@example(([], 2))
@example(([7], 300))
@example(([1] * 300, 2))
def test_suffix_index_is_exact(case):
    _assert_index_exact(*case)


@pytest.mark.parametrize(
    "top", [1, 2, 3, 4, 7, 8, 15, 16, 255, 256, 65535, 65536, 2**32 - 1]
)
def test_suffix_index_at_packing_boundaries(top):
    # the index packs w symbols of b = top.bit_length() bits into one 64-bit
    # word; these inputs put the largest symbol, the longest repeat and the
    # length at and around the edges of one word
    w = max(2**j for j in range(7) if 2**j * top.bit_length() <= 64)
    rng = np.random.Generator(np.random.Philox(top))
    letters = sorted({1, max(top // 2, 1), max(top - 1, 1), top}, reverse=True)
    m = max(top, 2)
    for repeat in (w - 1, w, w + 1, 2 * w):
        # a period of distinct symbols: the longest repeat is n minus the period
        u = np.resize(letters, len(letters) + repeat).tolist()
        assert int(_assert_index_exact(u, m).max()) == repeat
    for n in (1, 2, w - 1, w, 3 * w + 1):
        _assert_index_exact(rng.choice(letters, n).tolist(), m)


def _pinned_batch():
    """300 seeded strings: random, tiled and doubled, over six alphabets."""
    rng = np.random.Generator(np.random.Philox(5))
    alphabets = (2, 3, 27, 66, 300, 70000)
    for i in range(300):
        m = alphabets[i % 6]
        kind = ("random", "tiled", "doubled")[i // 6 % 3]
        # log-uniform lengths; doubled strings stay shorter, as their search
        # counts O(n**2) phases
        n = int(np.exp(rng.uniform(0, np.log(1000 if kind == "doubled" else 3000))))
        letters = np.unique(np.append(rng.integers(1, m + 1, min(m, 8) - 1), m))

        def draw(size):
            return letters[rng.integers(0, letters.size, size)]

        if kind == "random":
            u = draw(n)
        elif kind == "tiled":
            u = np.resize(draw(int(rng.integers(1, min(n, 64) + 1))), n)
        else:
            half = draw(n // 2)
            u = np.concatenate([half, half, draw(n % 2)])
        yield u, m


# SHA-256 of the "code_bits,k,l,num_rules" rows of _pinned_batch, one line
# each, as computed before the word-packed suffix sort: a change to the
# search must leave every row as it is
PINNED_ROWS_SHA256 = "46a22e5d4fcf91dc1be1a89e4bd675f1b64b2c5e616b86ba208f136a1d11a649"


def test_search_results_are_pinned():
    rows = []
    for u, m in _pinned_batch():
        r = minimal_block_transform(SymbolCode(m), u)
        rows.append(f"{r.code_bits},{r.block_len},{r.shift},{r.num_rules}")
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == PINNED_ROWS_SHA256


def test_grammar_is_built_on_first_read():
    rng = np.random.Generator(np.random.Philox(29))
    code = SymbolCode(3)
    for u in ([], [1, 2, 3], [1, 2] * 40, _random_string(rng, 3, 500)):
        r = minimal_block_transform(code, u)
        assert "grammar" not in vars(r)
        g = r.dictionary
        assert r.grammar is r.grammar
        assert (r.num_rules, r.m, r.code_bits) == (
            g.num_rules, g.m, grammar_code_length(code, g)
        )


def test_statistics_do_not_build_the_grammar(monkeypatch):
    def refuse(*args):
        raise AssertionError("the grammar was built")

    monkeypatch.setattr(transform, "_build_block_grammar", refuse)
    records = run_sweep([parse_source("bernoulli:0.5", seed=3)], [256, 1024])
    assert all(r.block_len >= 1 for r in records)
    code = SymbolCode(2)
    x = np.resize([1, 2, 2, 1, 2], 600)
    assert pointwise_mi(code, x[:250], x[250:]) <= mi_bound(minimal_block_transform(code, x))
    with pytest.raises(AssertionError, match="grammar was built"):
        minimal_block_transform(code, x).grammar


def test_codec_never_builds_the_rule_tuples(monkeypatch, corpus_symbols):
    def refuse(g):
        raise AssertionError("the rule tuples were built")

    monkeypatch.setattr(DictionaryGrammar, "rules", property(refuse))
    symbols, alphabet = corpus_symbols
    rng = np.random.Generator(np.random.Philox(30))
    cases = [(symbols[: 1 << 12], len(alphabet)), (rng.integers(1, 3, 3000), 2),
             (np.array([1, 2, 2, 1]), 2)]  # the last has the terminal grammar
    for u, m in cases:
        out, m_out = decompress(compress(u, m))
        assert np.array_equal(out, u) and m_out == m
    with pytest.raises(AssertionError, match="tuples were built"):
        DictionaryGrammar.from_arrays(2, [1, 2], [0, 2]).rules


def test_phase_duplicates_match_a_count_of_each_k():
    # and each phase's singleton floor is at most its exact cost, and equal on
    # some; pricing a phase by block_cost is O(n), so the floor is checked up
    # to k = 64, past which the tiled and doubled strings have 3M phases
    rng = np.random.Generator(np.random.Philox(31))
    sides = set()
    tight = 0
    for kind in ("random", "tiled", "doubled"):
        for m in (2, 27):
            code = SymbolCode(m)
            for n in (1, 40, 700, 2000):
                if kind == "random":
                    u = _random_string(rng, m, n)
                elif kind == "tiled":
                    u = np.resize(_random_string(rng, m, int(rng.integers(1, 40))), n)
                else:
                    half = _random_string(rng, m, n // 2)
                    u = np.concatenate([half, half, _random_string(rng, m, n % 2)])
                rank, lcp = _suffix_index(_as_symbols(u, m))
                reach = _repeat_reach(rank, lcp)
                kcap = int(lcp.max(initial=0))
                order, below = _reach_order(reach, kcap)
                cum_rank_len = np.concatenate(([0], np.cumsum(_rank_length_table(n))))
                listed = u.tolist()
                for k in range(1, kcap + 1):
                    edge = int(below[k - 1])
                    want = np.bincount(np.flatnonzero(reach >= k) % k, minlength=k)
                    assert np.array_equal(_phase_duplicates(order, edge, k), want)
                    sides.add(n - edge <= edge)
                    if k > 64:
                        continue
                    for l in range(min(k, n - k + 1)):
                        p = (n - l) // k
                        tail = n - l - p * k
                        cost = block_cost(code, RankedBlockTable.from_parse(listed, k, l), k, l, tail)
                        floor = _floor(code.fixed_len, k, p, int(want[l]), l + tail, cum_rank_len)
                        assert floor <= cost, (kind, m, n, k, l)
                        tight += floor == cost
    assert sides == {True, False}  # both sides were binned
    assert tight


@pytest.mark.parametrize("kcap", [1, 254, 255, 65534, 65535, 70000])
def test_reach_order_keeps_every_k_apart(kcap):
    # the clipped reach is stored in uint8, uint16 or the reach's own type
    rng = np.random.Generator(np.random.Philox(kcap))
    reach = np.concatenate([
        rng.integers(0, kcap + 3, 3000), [0, kcap - 1, kcap, kcap + 1, kcap + 2]
    ]).astype(np.int32)
    order, below = _reach_order(reach, kcap)
    assert below.size == kcap + 2
    for k in {1, 2, kcap // 2, kcap - 1, kcap} - {0}:
        edge = int(below[k - 1])
        assert edge == np.count_nonzero(reach < k)
        assert np.array_equal(np.sort(order[edge:]), np.flatnonzero(reach >= k))


def test_round_trip_small_batch():
    rng = np.random.Generator(np.random.Philox(25))
    for m in (2, 3, 27):
        code = SymbolCode(m)
        for _ in range(60):
            u = _random_string(rng, m, int(rng.integers(0, 500)))
            bits = encode(code, u)
            assert len(bits) == minimal_block_transform(code, u).code_bits
            assert np.array_equal(decode(code, bits), u)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2), max_size=64))
def test_round_trip_property(symbols):
    code = SymbolCode(2)
    out = decode(code, encode(code, symbols))
    assert out.tolist() == symbols


def test_kmax_override_is_upper_bound():
    rng = np.random.Generator(np.random.Philox(26))
    code = SymbolCode(2)
    u = _random_string(rng, 2, 2000)
    exact = minimal_block_transform(code, u)
    capped = minimal_block_transform(code, u, kmax=1)
    assert capped.code_bits >= exact.code_bits
    assert capped.block_len <= 1
    with pytest.raises(ValueError):
        minimal_block_transform(code, u, kmax=0)


def test_decode_warns_on_non_block_grammar():
    code = SymbolCode(2)
    # secondary rule (3, 1) holds a nonterminal, so this is not block shaped
    g = DictionaryGrammar(2, ((1, 2), (3, 1), (4, 4)))
    bits = encode_grammar(code, g)
    with pytest.warns(NonBlockGrammarWarning):
        out = decode(code, bits)
    assert out.tolist() == [1, 2, 1, 1, 2, 1]


def test_decompress_limits_a_grammar_of_empty_citations():
    from minblock.bits import pack_frame

    # expands to [1] through three levels of 1000 citations of an empty rule
    g = DictionaryGrammar(2, ((), (3,) * 1000, (4,) * 1000, (5,) * 1000, (6, 1)))
    frame = pack_frame(2, encode_grammar(SymbolCode(2), g))
    with pytest.warns(NonBlockGrammarWarning):
        out, m = decompress(frame, max_len=1)
    assert (out.tolist(), m) == ([1], 2)


def test_shift_and_runs_are_consistent():
    # force a parse with nonzero head and tail
    code = SymbolCode(2)
    u = [2] + [1, 2] * 40 + [1]
    r = minimal_block_transform(code, u)
    assert r.block_len >= 1
    g = r.grammar
    assert g.head_len == r.shift
    n = len(u)
    p = (n - r.shift) // r.block_len
    assert g.tail_len == (n - r.shift) - p * r.block_len
    assert np.array_equal(decode(code, encode(code, u)), np.array(u))


@pytest.mark.parametrize(
    "m, ks",
    [
        (2, (1, 2, 3, 7)),
        (2, (41, 44)),
        (300, (1, 2, 7)),  # uint16 symbols
        (300, (8, 9)),
    ],
)
def test_block_build_ranks_as_the_table(m, ks):
    rng = np.random.Generator(np.random.Philox(27))
    for k in ks:
        for _ in range(4):
            # few distinct symbols give repeated blocks and many equal counts
            piece = rng.integers(1, min(m, int(rng.choice([2, 3, m]))) + 1, 6 * k)
            u = np.concatenate([piece, rng.permutation(piece), piece[: 3 * k + 1]])
            arr = _as_symbols(u, m)
            suffix_rank, lcp = _suffix_index(arr)
            classes = _kgram_classes(lcp, k)[suffix_rank]
            for l in range(k):
                p = (len(u) - l) // k
                g = _build_block_grammar(arr, m, k, l, classes[l : l + p * k : k])
                table = RankedBlockTable.from_parse(u.tolist(), k, l)
                assert g.base.rules[:-1] == tuple(block for block, _ in table.entries)
                rank = {block: i for i, (block, _) in enumerate(table.entries, start=m + 1)}
                refs = [rank[tuple(u[l + i * k : l + (i + 1) * k].tolist())] for i in range(p)]
                assert g.base.primary == tuple(u[:l].tolist() + refs + u[l + p * k :].tolist())
                assert (g.head_len, g.tail_len) == (l, len(u) - l - p * k)


def test_alphabet_above_uint16_round_trips():
    # symbols above 65535 were once stored as uint16 and decoded wrong silently
    code = SymbolCode(70000)
    u = [1, 65537, 1, 65537, 2, 3]
    assert symbol_dtype(70000) == np.uint32
    assert decode(code, encode(code, u)).tolist() == u
    with pytest.raises(ValueError):
        compress(u, 70000)  # the frame header holds m in 16 bits
    with pytest.raises(ValueError):
        SymbolCode(2**32)
