"""Transform: parse costs, global optimality, round trips, determinism."""

import gc
import hashlib
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minblock import (
    CorruptionError,
    DictionaryGrammar,
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
from minblock import grammar, transform
from minblock.analysis import _mi_and_joint, mi_bound, pointwise_mi
from minblock.cli import parse_source, run_sweep
from minblock.grammar import symbol_dtype
from minblock.sources import gen_bernoulli
from minblock.transform import (
    _as_symbols,
    _build_block_grammar,
    _floor,
    _kgram_classes,
    _pair_caps,
    _phase_duplicates,
    _range_index,
    _rank_length_table,
    _reach_order,
    _shared_symbols,
    _suffix_index,
    _sweep,
)
from minblock.codes import rank_length

from reference import reference_min_bits


def _random_string(rng, m, n):
    return rng.integers(1, m + 1, n).astype(np.uint16)


def test_ranked_table_from_parse():
    table = RankedBlockTable.from_parse([1, 2, 1, 2, 1, 2, 1, 2, 1, 2], 2, 0)
    assert table.entries == (((1, 2), 5),)
    table = RankedBlockTable.from_parse([1, 2, 2, 1], 2, 0)
    assert table.entries == (((1, 2), 1), ((2, 1), 1))  # tie broken by value
    assert table.num_blocks == 2
    # an array parses as the list of its values, into plain ints
    table = RankedBlockTable.from_parse(np.array([1, 2, 2, 1], dtype=np.uint8), 2, 0)
    assert table.entries == (((1, 2), 1), ((2, 1), 1))
    assert all(type(s) is int for block, _ in table.entries for s in block)


def test_ranked_table_validation():
    with pytest.raises(ValueError):
        RankedBlockTable((((1,), 1), ((2,), 2)))  # ascending counts
    with pytest.raises(ValueError):
        RankedBlockTable((((2,), 1), ((1,), 1)))  # tie out of value order
    with pytest.raises(ValueError):
        RankedBlockTable((((1,), 0),))
    with pytest.raises(ValueError, match="distinct"):
        RankedBlockTable((((1,), 2), ((1,), 1)))
    with pytest.raises(ValueError, match="one length"):
        RankedBlockTable((((1, 2), 2), ((1,), 1)))
    for k, l in ((0, 0), (2, -1), (3, 2), (5, 0)):
        with pytest.raises(ValueError, match="at least one full block"):
            RankedBlockTable.from_parse([1, 2, 1, 2], k, l)


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
    with pytest.raises(ValueError, match="invalid parse geometry"):
        block_cost(code, table, 0, 0, 0)


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
    with pytest.raises(ValueError, match="symbols must be integers"):
        minimal_block_transform(code, b"\x01\x02")
    with pytest.raises(ValueError, match="input must be one dimensional"):
        minimal_block_transform(code, [[1, 2], [2, 1]])


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
    rank, lcp, *_ = _suffix_index(_as_symbols(u, m))
    sa = np.argsort(rank).tolist()
    assert sa == sorted(range(n), key=lambda i: u[i:])
    assert sorted(rank.tolist()) == list(range(n))

    def common(a, b):
        c = 0
        while a + c < n and b + c < n and u[a + c] == u[b + c]:
            c += 1
        return c

    assert lcp.tolist() == [0][:n] + [common(sa[i - 1], sa[i]) for i in range(1, n)]
    # the LCP of each position with the suffix sorted just before it: at
    # least k exactly where that suffix starts with the same k-gram, so the
    # positions below k are one per k-gram
    before = lcp[rank]
    for k in range(1, max(lcp.tolist(), default=0) + 2):
        grams = [tuple(u[i : i + k]) for i in range(n - k + 1)]
        prior = [r > 0 and tuple(u[sa[r - 1] : sa[r - 1] + k]) == g
                 for g, r in zip(grams, rank.tolist())]
        short = [False] * (n - len(grams))  # suffixes shorter than k
        assert (before >= k).tolist() == prior + short
        assert prior.count(False) == len(set(grams))
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


PACKING_TOPS = [1, 2, 3, 4, 7, 8, 15, 16, 255, 256, 65535, 65536, 2**32 - 1]


def _word_and_letters(top):
    """Symbols per packed word, and a few letters up to ``top``, largest first.

    The index packs w symbols of b = top.bit_length() bits into one 64-bit
    word.
    """
    w = max(2**j for j in range(7) if 2**j * top.bit_length() <= 64)
    return w, sorted({1, max(top // 2, 1), max(top - 1, 1), top}, reverse=True)


def _packing_inputs(top):
    """Strings whose largest symbol, longest repeat and length sit at and
    around the edges of one packed word.

    Yields ``(u, m, repeat)``, with ``repeat`` the longest repeat when it is
    fixed by the construction, else None.
    """
    w, letters = _word_and_letters(top)
    rng = np.random.Generator(np.random.Philox(top))
    m = max(top, 2)
    for repeat in (w - 1, w, w + 1, 2 * w):
        # a period of distinct symbols: the longest repeat is n minus the period
        yield np.resize(letters, len(letters) + repeat).tolist(), m, repeat
    for n in (1, 2, w - 1, w, 3 * w + 1):
        yield rng.choice(letters, n).tolist(), m, None


@pytest.mark.parametrize("top", PACKING_TOPS)
def test_suffix_index_at_packing_boundaries(top):
    for u, m, repeat in _packing_inputs(top):
        lcp = _assert_index_exact(u, m)
        if repeat is not None:
            assert int(lcp.max()) == repeat


def test_shared_symbols_read_the_bit_length_of_the_difference():
    # against int.bit_length of the XOR: equal words, every single-bit
    # difference and random words that share a random number of leading
    # bits, at each packing of b bits per symbol; the random words of b = 8
    # span three slices
    rng = np.random.Generator(np.random.Philox(9))
    for b in range(1, 65):
        w = 1 << ((64 // b).bit_length() - 1)
        count = 2 * transform._SLICE + 3 if b == 8 else 300
        x, noise = (np.frombuffer(rng.bytes(8 * count), np.uint64) >> np.uint64(64 - w * b)
                    for _ in range(2))
        noise >>= rng.integers(0, w * b, count).astype(np.uint64)
        single_bits = np.uint64(1) << np.arange(w * b, dtype=np.uint64)
        y = np.concatenate([x[:1], x[1 : w * b + 1] ^ single_bits, x[w * b + 1 :] ^ noise[w * b + 1 :]])
        got = _shared_symbols(x, y, w, b)
        want = [(w * b - (int(p) ^ int(q)).bit_length()) // b for p, q in zip(x, y)]
        assert got.tolist() == want, b
        assert got[0] == w


def test_suffix_index_memory_at_file_size(corpus_symbols):
    # the 2**20 corpus prefix takes two doubling rounds; each round's splits
    # are lifted in slices, and the rank copy is made after the round's sort
    # (47.1 MB before either)
    x = corpus_symbols[0][: 1 << 20]
    tracemalloc.start()
    try:
        index = _suffix_index(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.lcp.max() > 2 * index.w  # past the first doubling round
    assert peak < 44e6


def test_rank_length_table_is_exact_in_one_byte():
    assert rank_length(2**63 - 1) < 256  # the longest offset a codeword holds
    for j in sorted({0, 1, 2, 3} | {2**k + d for k in range(1, 17) for d in (-1, 0, 1)}):
        table = _rank_length_table(j)
        assert table.dtype == np.uint8
        assert table.tolist() == [rank_length(i + 1) for i in range(j)]


@pytest.mark.parametrize("top", PACKING_TOPS)
def test_block_keys_count_as_the_class_ids(top, monkeypatch):
    # a block of k <= w symbols is keyed by the top of its packed word, as
    # uint32 while k * b <= 32; the same sweep with w = 0 counts every block
    # by its class ID.  Both must agree at k = w - 1, w, w + 1 and on both
    # sides of k * b = 32, on the packing inputs, on strings tiled with a
    # period of k or doubled, whose best parse lies at such k, and on blocks
    # that differ only in their first symbol, the top bits of the key, each
    # whole and as ranges that end before and at the end.  Both sweeps
    # count the same phases, so each k the class-ID sweep builds classes for
    # counted a phase that no cap pruned; a run of k * k equal symbols, whose
    # best block length is k, gives even b = 1 such a phase
    b = top.bit_length()
    w, letters = _word_and_letters(top)
    ks = sorted({w - 1, w, w + 1, 32 // b, 32 // b + 1} - {0})
    rng = np.random.Generator(np.random.Philox(top + 1))
    inputs = [u for u, _, _ in _packing_inputs(top)]
    for k in ks:
        inputs.append([top] * k * k)
        inputs.append(np.resize(rng.choice(letters, k), 9 * k + 3).tolist())
        half = rng.choice(letters, 2 * k + 1).tolist()
        inputs.append(half + half)
        tail = rng.choice(letters, k - 1).tolist()
        inputs.append([s for i in range(8) for s in [letters[i % len(letters)]] + tail])
    m = max(top, 2)
    code = SymbolCode(m)
    counted = set()

    def classes(lcp, k):
        counted.add(k)
        return _kgram_classes(lcp, k)

    monkeypatch.setattr(transform, "_kgram_classes", classes)
    for u in inputs:
        index = _suffix_index(_as_symbols(u, m))
        n = len(u)
        for lo, hi in ((0, n), (0, n // 2), (n // 3, n)):
            keyed = _sweep(code, index, lo, hi)
            by_class = _sweep(code, index._replace(w=0), lo, hi)
            assert keyed == by_class, (u, lo, hi)
    assert counted >= set(ks)


def _pinned_batch():
    """300 seeded strings: random, tiled and doubled, over six alphabets."""
    rng = np.random.Generator(np.random.Philox(5))
    alphabets = (2, 3, 27, 66, 300, 70000)
    for i in range(300):
        m = alphabets[i % 6]
        kind = ("random", "tiled", "doubled")[i // 6 % 3]
        # log-uniform lengths, doubled strings drawn shorter; the draws fix
        # the pinned rows, so they stay as they are
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


def _stats(result):
    return result.code_bits, result.block_len, result.shift, result.num_rules


def test_ranges_search_as_their_own_transforms(monkeypatch):
    # every part of a split, searched as a range of the concatenation's index,
    # against the transform of the part alone.  The strings are the pinned
    # batch's shorter ones, cut at both ends, next to them and at a random
    # place.  The part that runs to the end is searched with the LCP of its
    # own index; the other is sorted by the whole string, so a position's
    # predecessor need not be the one in the part's own index, and its
    # values are only checked as bounds (see _assert_range_bounds)
    rng = np.random.Generator(np.random.Philox(41))
    seen = _record_reach_order(monkeypatch)
    for u, m in _pinned_batch():
        n = u.size
        if n >= 200:
            continue
        code = SymbolCode(m)
        x = _as_symbols(u, m)
        index = _suffix_index(x)
        whole = minimal_block_transform(code, x)
        for c in {0, 1, n - 1, n, int(rng.integers(0, n + 1))} - {-1}:
            parts = [minimal_block_transform(code, x[:c]), minimal_block_transform(code, x[c:])]
            j, joint = _mi_and_joint(code, x[:c], x[c:])
            assert j == parts[0].code_bits + parts[1].code_bits - whole.code_bits
            assert _stats(joint) == _stats(whole)
            for (lo, hi), part in zip(((0, c), (c, n)), parts):
                seen.clear()
                best, parse = _sweep(code, index, lo, hi)
                k, l, distinct = parse or (0, 0, 0)
                assert (best, k, l, distinct + 1) == _stats(part), (m, n, lo, hi)
                if hi < n:
                    _assert_range_bounds(x, lo, hi, seen)
                elif seen:
                    own = _suffix_index(x[lo:hi])
                    assert np.array_equal(seen[0][0], own.lcp[own.rank]), (m, n, lo, hi)


def _record_reach_order(monkeypatch):
    """Record the ``(before, kcap)`` that each sweep sorts its positions by."""
    seen = []

    def record(before, kcap):
        seen.append((before.copy(), kcap))
        return _reach_order(before, kcap)

    monkeypatch.setattr(transform, "_reach_order", record)
    return seen


def _assert_range_bounds(x, lo, hi, seen):
    """The values a sweep of x[lo:hi] sorted by (``seen``) bound its repeats.

    For every k up to the sweep's kcap and every phase, the positions of the
    phase at k or above are at least the blocks that repeat an earlier one,
    p - distinct; kcap is at least the range's longest repeat, and no value
    runs past the end of its suffix.  Returns how many phases are tight.
    """
    n = hi - lo
    longest = int(_suffix_index(x[lo:hi]).lcp.max(initial=0))
    if not seen:  # the sweep stopped before sorting: nothing repeats
        assert longest == 0, (lo, hi)
        return 0
    (before, kcap), = seen
    assert before.size == n and kcap == int(before.max()) >= longest, (lo, hi)
    assert np.all(before <= np.arange(n, 0, -1)), (lo, hi)
    listed = x[lo:hi].tolist()
    tight = 0
    for k in range(1, kcap + 1):
        counts = np.bincount(np.flatnonzero(before >= k) % k, minlength=k)
        for l in range(min(k, n - k + 1)):
            repeats = (n - l) // k - RankedBlockTable.from_parse(listed, k, l).num_blocks
            assert counts[l] >= repeats, (lo, hi, k, l)
            tight += counts[l] == repeats
    return tight


def test_range_values_bound_the_repeats_of_every_phase(monkeypatch):
    # random, doubled, near-doubled and tiled strings, whole and as ranges
    # that end before the end; the bound is equal on some phase, at k = 1
    # always
    seen = _record_reach_order(monkeypatch)
    rng = np.random.Generator(np.random.Philox(47))
    tight = 0
    for m in (2, 3, 27, 300):
        code = SymbolCode(m)
        for n in (12, 30, 80):
            for u in _strings_of_each_kind(rng, m, n):
                x = _as_symbols(u, m)
                index = _suffix_index(x)
                cut = int(rng.integers(n // 2, n))
                for lo, hi in ((0, n), (0, cut), (n - cut, cut)):
                    seen.clear()
                    _sweep(code, index, lo, hi)
                    tight += _assert_range_bounds(x, lo, hi, seen)
    assert tight


def test_a_range_index_is_built_once_per_sweep(monkeypatch):
    # a range whose longest repeat passes _PAIRS_ABOVE also takes the
    # aligned-repeat caps from the one range index of its sweep
    built, caps = [], []

    def range_index(*args):
        built.append(args[2:])
        return _range_index(*args)

    def pair_caps(rank, lcp, kcap):
        caps.append(kcap)
        return _pair_caps(rank, lcp, kcap)

    monkeypatch.setattr(transform, "_range_index", range_index)
    monkeypatch.setattr(transform, "_pair_caps", pair_caps)
    u, m = _long_repeat_input("doubled", 600)
    x = _as_symbols(u, m)
    index = _suffix_index(x)
    for lo, hi in ((0, 600), (0, 500), (50, 600)):
        built.clear(), caps.clear()
        _sweep(SymbolCode(m), index, lo, hi)
        assert built == [(lo, hi)]
        assert len(caps) == 1 and caps[0] > transform._PAIRS_ABOVE


def test_pair_caps_wait_for_a_block_length_past_its_floor(monkeypatch):
    # a random input's longest repeat passes _PAIRS_ABOVE (34 here), but the
    # first-of-class floor prunes every k above it on its own, so the
    # aligned-repeat tables are not built; the result is the one the search
    # found when it built them whenever the longest repeat passed 32
    caps = []

    def pair_caps(rank, lcp, kcap):
        caps.append(kcap)
        return _pair_caps(rank, lcp, kcap)

    monkeypatch.setattr(transform, "_pair_caps", pair_caps)
    u = gen_bernoulli((0.5, 0.5), 1 << 17, 7)
    assert int(_suffix_index(_as_symbols(u, 2)).lcp.max()) == 34 > transform._PAIRS_ABOVE
    assert _stats(minimal_block_transform(SymbolCode(2), u)) == (224521, 7, 0, 129)
    assert caps == []


def _long_repeat_input(kind, n):
    """A doubled or near-doubled random binary string, or the CLI's all-bytes input."""
    rng = np.random.Generator(np.random.Philox(8 if kind == "all-bytes" else 5))
    if kind == "all-bytes":
        data = bytes(range(256)) + rng.integers(0, 256, n, dtype=np.uint8).tobytes() * 2
        return np.frombuffer(data, np.uint8).astype(np.uint16) + 1, 256
    half = rng.integers(1, 3, n // 2)
    copy = half.copy()
    if kind == "near-doubled":  # the copy with 5 symbols flipped
        flips = rng.choice(half.size, 5, replace=False)
        copy[flips] = 3 - copy[flips]
    return np.concatenate([half, copy]), 2


@pytest.mark.parametrize(
    "kind, n, want",
    [
        # (code_bits, block_len, shift, num_rules), computed by the search
        # before the aligned-repeat caps, which took the time in the comment
        # (one run each, on a 2-vCPU VM)
        ("doubled", 6000, (9015, 3000, 0, 2)),  # 10.5 s
        ("near-doubled", 12000, (20752, 150, 0, 45)),  # 5.4 s
        ("near-doubled", 24000, (39850, 150, 129, 84)),  # 44.5 s
        ("all-bytes", 3000, (32596, 3000, 256, 2)),  # 10.3 s
    ],
)
def test_long_repeats_take_near_linear_time(kind, n, want):
    # a long repeat has classes of two members at nearly every k up to its
    # length; the aligned-repeat caps leave only the k that divide its
    # distance, so the search no longer counts every phase of every k
    u, m = _long_repeat_input(kind, n)
    start = time.perf_counter()
    r = minimal_block_transform(SymbolCode(m), u)
    assert time.perf_counter() - start < 2.0
    assert _stats(r) == want


def _family(kind, n):
    """n symbols over {1, 2} of an input family: a random string, a constant
    run, a random piece of period q tiled, the Thue-Morse word or the
    Fibonacci word (each prefix the concatenation of the two before)."""
    if kind == "random":
        return np.random.Generator(np.random.Philox(11)).integers(1, 3, n)
    if kind == "constant":
        return np.ones(n, np.int64)
    if kind.startswith("tiled"):
        q = int(kind.removeprefix("tiled"))
        return np.resize(np.random.Generator(np.random.Philox(q)).integers(1, 3, q), n)
    if kind == "thue-morse":
        return np.array([i.bit_count() % 2 + 1 for i in range(n)])
    shorter, longer = [1], [1, 2]
    while len(longer) < n:
        shorter, longer = longer, longer + shorter
    return np.array(longer[:n])


@pytest.mark.parametrize(
    "kind, n, want",
    [
        # (code_bits, block_len, shift, num_rules), pinned as the search gave
        # them.  The Fibonacci word and tiled571 at 2**14 are left out: they
        # take about 4 s and 1.2 s, since nearly every phase of them is
        # counted; they join once the search bounds them.
        ("random", 1 << 12, (8215, 5, 0, 33)),
        ("constant", 1 << 12, (393, 64, 0, 2)),
        ("tiled37", 1 << 12, (474, 74, 0, 2)),
        ("tiled571", 1 << 12, (2040, 571, 0, 2)),
        ("thue-morse", 1 << 12, (684, 64, 0, 3)),
        ("fibonacci", 1 << 12, (2674, 29, 4, 18)),
        ("random", 1 << 14, (30179, 7, 6, 129)),
        ("constant", 1 << 14, (777, 128, 0, 2)),
        ("tiled37", 1 << 14, (984, 74, 0, 2)),
        ("thue-morse", 1 << 14, (1356, 128, 0, 3)),
    ],
)
def test_input_families(kind, n, want):
    # periodic and Sturmian inputs next to a random one: the result of each,
    # and a round trip through the frame, which parses their payloads of
    # repeated references
    u = _family(kind, n)
    assert _stats(minimal_block_transform(SymbolCode(2), u)) == want
    back, m = decompress(compress(u, 2))
    assert m == 2 and np.array_equal(back, u)


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


def test_only_a_grammar_read_gathers_the_class_ids(monkeypatch):
    # these inputs' longest repeats are below w = 32, so the search keys every
    # block by its packed word and never asks for the k-gram classes
    calls = []
    kept = []  # the input copy, ranks and LCP that each transform keeps
    real_result = transform._result

    def classes(lcp, k):
        calls.append(k)
        return _kgram_classes(lcp, k)

    def watched(code, arr, index, *search):
        kept.extend(weakref.ref(a) for a in (arr, index.rank, index.lcp))
        return real_result(code, arr, index, *search)

    monkeypatch.setattr(transform, "_kgram_classes", classes)
    monkeypatch.setattr(transform, "_result", watched)
    code = SymbolCode(2)
    u, v = (gen_bernoulli((0.5, 0.5), 4096, seed) for seed in (1, 2))
    joint = np.concatenate([u, v])
    assert int(_suffix_index(joint).lcp.max()) < 32
    r = minimal_block_transform(code, u)
    assert r.block_len >= 1 and calls == []
    g = r.grammar
    assert calls == [r.block_len] and r.grammar is g
    gc.collect()
    assert len(kept) == 3 and all(ref() is None for ref in kept)
    assert np.array_equal(decode(code, encode_grammar(code, r.dictionary)), u)
    bits = [minimal_block_transform(code, x).code_bits for x in (u, v, joint)]
    assert pointwise_mi(code, u, v) == bits[0] + bits[1] - bits[2]
    assert calls == [r.block_len]


def _own_mi(code, u, v):
    """J of u and v from three transforms of their own."""
    parts = (u, v, np.concatenate([u, v]))
    bu, bv, bx = (minimal_block_transform(code, s).code_bits for s in parts)
    return bu + bv - bx


def test_cuts_of_one_string_index_it_once(monkeypatch):
    # pointwise_mi holds the last concatenation's index and search, so the
    # cuts of one string build one index between them, and each change to
    # another string builds one more
    built = []

    def counted(arr):
        built.append(arr.size)
        return _suffix_index(arr)

    monkeypatch.setattr(transform, "_last_joint", None)
    monkeypatch.setattr(transform, "_suffix_index", counted)
    code = SymbolCode(2)
    a, b = (gen_bernoulli((0.5, 0.5), 2048, seed) for seed in (3, 4))
    for cut in (1, 500, 1024, 1500, 2047):
        pointwise_mi(code, a[:cut], a[cut:])
    assert built == [2048]
    for cut in (700, 0):
        pointwise_mi(code, b[:cut], b[cut:])
    assert built == [2048] * 2
    for cut in (9, 2048):
        pointwise_mi(code, a[:cut], a[cut:])
    assert built == [2048] * 3


def test_a_held_joint_search_gives_each_call_its_own_j(monkeypatch):
    # J equals three transforms of its own, whatever the call before it
    # held: one string under two alphabets, whose codewords differ in width,
    # and a caller's part changed in place between two calls.  Cuts of two
    # strings in turn are test_mi_bound_holds_on_random_splits'
    monkeypatch.setattr(transform, "_last_joint", None)
    code = SymbolCode(2)
    a = gen_bernoulli((0.5, 0.5), 3000, 5)
    u, v = a[:1200].copy(), a[1200:]
    js = []
    for c in (SymbolCode(2), SymbolCode(3)):
        assert c.fixed_len == len(js) + 3
        js.append(pointwise_mi(c, u, v))
        assert js[-1] == _own_mi(c, u, v)
    assert js[0] != js[1]

    assert pointwise_mi(code, u, v) == js[0]
    u[::7] = 3 - u[::7]
    assert pointwise_mi(code, u, v) == _own_mi(code, u, v) != js[0]

    # the held arrays refuse a write rather than change every later J
    _, x, index, _, _ = transform._last_joint
    for arr in (x, index.rank, index.lcp, index.words):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        index.lcp[1] = 0


def test_threads_take_j_at_cuts_of_two_strings_at_once():
    # more threads than cores, switching often, each replacing the held
    # joint search that another one is reading
    code = SymbolCode(2)
    pieces = [gen_bernoulli((0.5, 0.5), 2048, 6), np.resize(np.array([2, 1, 1, 2]), 2048)]
    cuts = (1, 300, 0, 1024, 2048, 2047)
    want = [[_own_mi(code, x[:c], x[c:]) for c in cuts] for x in pieces]

    def profile(x):
        return [pointwise_mi(code, x[:c], x[c:]) for c in cuts * 4]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(profile, x) for x in pieces * 2]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [w * 4 for w in want * 2]


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
    # and each phase's first-of-class floor is at most its exact cost, and equal on
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
                rank, lcp, *_ = _suffix_index(_as_symbols(u, m))
                before = lcp[rank]
                kcap = int(lcp.max(initial=0))
                order, below = _reach_order(before, kcap)
                listed = u.tolist()
                for k in range(1, kcap + 1):
                    edge = int(below[k - 1])
                    want = np.bincount(np.flatnonzero(before >= k) % k, minlength=k)
                    assert np.array_equal(_phase_duplicates(order, edge, k), want)
                    sides.add(n - edge <= edge)
                    if k > 64:
                        continue
                    for l in range(min(k, n - k + 1)):
                        p = (n - l) // k
                        tail = n - l - p * k
                        cost = block_cost(code, RankedBlockTable.from_parse(listed, k, l), k, l, tail)
                        floor = _floor(code.fixed_len, k, p, int(want[l]), l + tail)
                        assert floor <= cost, (kind, m, n, k, l)
                        tight += floor == cost
    assert sides == {True, False}  # both sides were binned
    assert tight


def _strings_of_each_kind(rng, m, n):
    """A random, a doubled, a near-doubled and a tiled string of length n."""
    letters = np.unique(np.append(rng.integers(1, m + 1, min(m, 8) - 1), m))

    def draw(size):
        return letters[rng.integers(0, letters.size, size)]

    half = draw(n // 2)
    near = half.copy()
    flips = rng.integers(0, near.size, 2)
    near[flips] = np.where(near[flips] == letters[0], letters[-1], letters[0])
    yield draw(n)
    yield np.concatenate([half, half, draw(n % 2)])
    yield np.concatenate([half, near, draw(n % 2)])
    yield np.resize(draw(int(rng.integers(1, 12))), n)


@pytest.mark.parametrize("pairs_above", [0, transform._PAIRS_ABOVE])
def test_pair_caps_bound_the_repeats_of_every_phase(monkeypatch, pairs_above):
    # for every k <= kcap and phase l, the aligned-repeat caps are at least
    # the blocks that repeat an earlier one, p - distinct, in the phase and
    # summed over the phases; on whole strings and on ranges that end before
    # the end, whose LCP is only an upper bound.  With the pairs told apart
    # from k = 1 on, the short strings' searches also equal the reference
    monkeypatch.setattr(transform, "_PAIRS_ABOVE", pairs_above)
    rng = np.random.Generator(np.random.Philox(43))
    tight = 0
    for m in (2, 3, 27, 300):
        code = SymbolCode(m)
        for n in (30, 80) if pairs_above else (12, 30):
            for u in _strings_of_each_kind(rng, m, n):
                x = _as_symbols(u, m)
                index = _suffix_index(x)
                cut = int(rng.integers(n // 2, n))
                for lo, hi in ((0, n), (0, cut), (n - cut, cut)):
                    rank, lcp = _range_index(index.rank, index.lcp, lo, hi)
                    kcap = int(lcp.max(initial=0))  # at least the sweep's kcap
                    if kcap <= pairs_above:
                        continue
                    caps = _pair_caps(rank, lcp, kcap)
                    listed = x[lo:hi].tolist()
                    for k in range(pairs_above + 1, kcap + 1):
                        repeats = [(hi - lo - l) // k
                                   - RankedBlockTable.from_parse(listed, k, l).num_blocks
                                   for l in range(min(k, hi - lo - k + 1))]
                        phases = np.broadcast_to(caps.phases(k), k)[: len(repeats)]
                        assert np.all(phases >= repeats), (m, n, lo, hi, k)
                        assert caps.level(k) >= sum(repeats), (m, n, lo, hi, k)
                        tight += caps.level(k) == sum(repeats) > 0
                    if n <= 30:
                        best, _ = _sweep(code, index, lo, hi)
                        assert best == reference_min_bits(code, listed), (m, n, lo, hi)
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


def test_kmax_is_refused():
    # the search has no cap: a capped result would only bound the optimum
    u = [1, 2, 1, 2, 1, 2]
    with pytest.raises(TypeError):
        minimal_block_transform(SymbolCode(2), u, kmax=1)
    with pytest.raises(TypeError):
        compress(u, 2, kmax=1)


def test_decode_rejects_a_non_block_grammar():
    code = SymbolCode(2)
    # secondary rule (3, 1) holds a nonterminal, so this is not block shaped
    g = DictionaryGrammar(2, ((1, 2), (3, 1), (4, 4)))
    with pytest.raises(CorruptionError, match="not block shaped"):
        decode(code, encode_grammar(code, g))


def test_decode_infers_the_block_shape_once(monkeypatch):
    # one shape check per decode, though decode asks is_block_shaped and then
    # expand; it still looks both up in transform, where the traced
    # benchmark run wraps them
    code = SymbolCode(2)
    u = [2] + [1, 2] * 40 + [1]
    bits = encode(code, u)
    checks, calls = [], []
    shape_error = grammar._shape_error

    def check(*args):
        checks.append(args[1:])
        return shape_error(*args)

    def counted(name):
        f = getattr(transform, name)

        def call(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(grammar, "_shape_error", check)
    for name in ("is_block_shaped", "expand"):
        monkeypatch.setattr(transform, name, counted(name))
    assert np.array_equal(decode(code, bits), u)
    assert len(checks) == 1
    assert calls == ["is_block_shaped", "expand"]


def test_decompress_limits_a_grammar_of_empty_citations():
    from minblock.bits import pack_frame

    # three levels of 1000 citations of an empty rule: not a block grammar,
    # so it is refused with or without a length limit
    g = DictionaryGrammar(2, ((), (3,) * 1000, (4,) * 1000, (5,) * 1000, (6, 1)))
    bits = encode_grammar(SymbolCode(2), g)
    with pytest.raises(CorruptionError):
        decompress(pack_frame(2, bits))
    for max_len in (1, None):
        with pytest.raises(CorruptionError):
            decode(SymbolCode(2), bits, max_len=max_len)


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
            suffix_rank, lcp, *_ = _suffix_index(arr)
            for l in range(k):
                p = (len(u) - l) // k
                g = _build_block_grammar(arr, m, k, l, suffix_rank, lcp)
                table = RankedBlockTable.from_parse(u.tolist(), k, l)
                assert g.base.rules[:-1] == tuple(block for block, _ in table.entries)
                rank = {block: i for i, (block, _) in enumerate(table.entries, start=m + 1)}
                refs = [rank[tuple(u[l + i * k : l + (i + 1) * k].tolist())] for i in range(p)]
                assert g.base.rules[-1] == tuple(u[:l].tolist() + refs + u[l + p * k :].tolist())
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


def test_compress_rejects_the_alphabet_before_searching(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the transform ran")

    monkeypatch.setattr(transform, "minimal_block_transform", refuse)
    with pytest.raises(ValueError, match="between 2 and 65535"):
        compress([1, 65537, 1, 65537], 70000)
    with pytest.raises(TypeError):  # once an AttributeError after the search
        compress([1, 2, 1, 2], 3.0)


def test_compress_takes_an_alphabet_size_of_any_integer_type():
    u = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3], dtype=np.uint8)
    frame = compress(u, 3)
    for m in (np.int64(3), u.max()):
        assert compress(u, m) == frame
    out, m = decompress(frame)
    assert out.tolist() == u.tolist() and type(m) is int and m == 3
