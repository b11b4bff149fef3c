"""Sources: determinism, statistics, corpus ingestion, permutation."""

import hashlib

import numpy as np
import pytest

from minblock import gen_bernoulli, gen_markov, ingest_corpus, permute_characters
from minblock.analysis import block_entropy
from minblock.sources import SourceSpec, map_bytes_to_symbols, realize


def test_bernoulli_degenerate():
    assert gen_bernoulli([1.0], 50, seed=1).tolist() == [1] * 50


def test_bernoulli_deterministic():
    a = gen_bernoulli([0.5, 0.5], 10_000, seed=7)
    b = gen_bernoulli([0.5, 0.5], 10_000, seed=7)
    assert np.array_equal(a, b)
    c = gen_bernoulli([0.5, 0.5], 10_000, seed=8)
    assert not np.array_equal(a, c)


def test_bernoulli_frequency_concentration():
    x = gen_bernoulli([0.5, 0.5], 1 << 20, seed=5)
    freq = float(np.mean(x == 1))
    assert 0.498 <= freq <= 0.502


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        gen_bernoulli([0.5, 0.6], 10, seed=0)
    with pytest.raises(ValueError):
        gen_bernoulli([0.5, 0.5], -1, seed=0)
    with pytest.raises(ValueError, match="one dimensional"):
        gen_bernoulli([[0.5, 0.5]], 10, seed=0)


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [0.5, np.nan], [np.nan, 1.0],
                                   [np.inf, -np.inf], [1.0, np.inf]])
def test_probabilities_must_be_finite(probs):
    # NaN fails every comparison, so a range check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        gen_bernoulli(probs, 10, seed=0)
    with pytest.raises(ValueError, match="finite"):
        gen_markov([[0.5, 0.5], probs], 10, seed=0)


def test_markov_rows_and_determinism():
    table = [[0.9, 0.1], [0.2, 0.8]]
    a = gen_markov(table, 5000, seed=3)
    assert np.array_equal(a, gen_markov(table, 5000, seed=3))
    assert set(np.unique(a)) <= {1, 2}
    # identity transitions freeze the chain in its initial state
    frozen = gen_markov([[1.0, 0.0], [0.0, 1.0]], 100, seed=4)
    assert len(set(frozen.tolist())) == 1
    empty = gen_markov(table, 0, seed=3)
    assert empty.size == 0 and empty.dtype == np.uint8
    with pytest.raises(ValueError):
        gen_markov([[0.5, 0.5]], 10, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_markov(table, -1, seed=0)


def test_markov_stream_is_pinned():
    # the chain starts uniform; the digest pins the whole stream, first symbol included
    table = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]]
    x = gen_markov(table, 100_000, seed=7)
    assert x.dtype == np.uint8
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "faa294331ad12dad48d9e8f3b245fd3adee17ad1f3c2074692ef128d29ed7a40"
    )


def test_ingest_first_appearance(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"abab")
    symbols, alphabet = ingest_corpus(path)
    assert symbols.tolist() == [1, 2, 1, 2]
    assert alphabet == [ord("a"), ord("b")]


def test_ingest_64_distinct_bytes(tmp_path):
    from minblock import SymbolCode

    payload = bytes(range(64)) * 3
    path = tmp_path / "t.bin"
    path.write_bytes(payload)
    symbols, alphabet = ingest_corpus(path)
    assert len(alphabet) == 64
    assert SymbolCode(len(alphabet)).fixed_len == 8


def test_ingest_idempotent(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"hello world")
    first = ingest_corpus(path)
    second = ingest_corpus(path)
    assert np.array_equal(first[0], second[0]) and first[1] == second[1]


def test_byte_map_dtype_and_the_first_missing_byte():
    symbols = map_bytes_to_symbols(b"cab", [ord("c"), ord("a"), ord("b")])
    assert symbols.dtype == np.uint8 and symbols.tolist() == [1, 2, 3]
    symbols = map_bytes_to_symbols(bytes(range(255, -1, -1)), list(range(256)))
    assert symbols.dtype == np.uint16 and symbols.tolist() == list(range(256, 0, -1))
    with pytest.raises(ValueError, match="byte 0x64 is not in the alphabet"):
        map_bytes_to_symbols(b"abdce", [ord("a"), ord("b"), ord("c")])


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    symbols, alphabet = ingest_corpus(path)
    assert symbols.size == 0 and alphabet == []


def test_permutation_preserves_counts():
    x = gen_bernoulli([0.3, 0.7], 5000, seed=11)
    y = permute_characters(x, seed=12)
    assert np.array_equal(np.bincount(x, minlength=3), np.bincount(y, minlength=3))
    assert np.array_equal(permute_characters(x, 12), y)


def test_permutation_singleton_identity():
    assert permute_characters([5], seed=1).tolist() == [5]


def test_permutation_of_empty_and_read_only_input():
    # bytes are read-only arrays; the empty one once made permutation raise
    empty = permute_characters(np.frombuffer(b"", dtype=np.uint8), seed=1)
    assert empty.size == 0 and empty.dtype == np.uint8
    data = np.frombuffer(bytes(range(256)) * 16 + b"abracadabra" * 50, dtype=np.uint8)
    y = permute_characters(data, seed=9)
    assert np.array_equal(y, permute_characters(data.copy(), seed=9))
    assert hashlib.sha256(y.tobytes()).hexdigest() == (
        "9dc06f28b3f3a436c3346a99033cd92da740c4652852d7e50b652ed3e2e80543"
    )


def test_permutation_keeps_unigram_entropy_exactly():
    x = gen_bernoulli([0.25, 0.25, 0.5], 40_000, seed=13)
    y = permute_characters(x, seed=14)
    assert block_entropy(x, 1) == block_entropy(y, 1)


def test_permutation_raises_bigram_entropy_of_structured_text(corpus_symbols):
    symbols, _ = corpus_symbols
    x = symbols[:100_000]
    y = permute_characters(x, seed=15)
    assert block_entropy(y, 2) >= block_entropy(x, 2)


def test_source_spec_realize():
    spec = SourceSpec(kind="bernoulli", probs=(0.5, 0.5), seed=3, label="b")
    stream, m = realize(spec, 100)
    assert stream.size == 100 and m == 2
    with pytest.raises(ValueError):
        SourceSpec(kind="nope")
    with pytest.raises(ValueError):
        SourceSpec(kind="corpus")
    with pytest.raises(ValueError, match="probability vector"):
        SourceSpec(kind="bernoulli")
    with pytest.raises(ValueError, match="transition table"):
        SourceSpec(kind="markov")
    assert SourceSpec(kind="bernoulli", probs=(1.0,)).label == "bernoulli"
