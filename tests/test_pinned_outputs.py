"""The outputs the paper's claims rest on, pinned as the code gives them.

Each pin is a literal computed before it was pinned: the frames of the
2**20-byte corpus prefix and of its character permutation, the sweep of the
benchmark's grid with both figures, and J and the MI bound at the cuts of
the benchmark's ``mi-splits`` workload.  A change that means to alter one of
these outputs edits its pin and says why in CHANGES.md; any other change
leaves them as they are.  The search results of a seeded batch are pinned
beside the search, in ``test_transform.py`` (``PINNED_ROWS_SHA256``).
"""

import hashlib

import numpy as np
import pytest

from minblock import (
    SymbolCode,
    compress,
    gen_bernoulli,
    ingest_corpus,
    mi_bound,
    minimal_block_transform,
    permute_characters,
    pointwise_mi,
)
from minblock.cli import main


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, corpus_path):
    """A directory holding the corpus's first 2**20 bytes as ``corpus.txt``."""
    path = tmp_path_factory.mktemp("pinned") / "corpus.txt"
    path.write_bytes(corpus_path.read_bytes()[: 1 << 20])
    return path.parent


FRAME_SHA256 = {
    "corpus": "830ab73c35b049e3a7fa7218aeceaf2843c0f1081b5f87e9e374cf1ddf010308",
    "permuted": "db192ee89692c463885bbf1c0e9e920f2ccafc33600b1e414fc41f94de1bc85c",
}


@pytest.mark.parametrize("kind", ["corpus", "permuted"])
def test_frames_of_the_corpus_prefix(corpus_dir, kind):
    # the inputs of the roundtrip-text workload, the permutation at seed 1
    symbols, alphabet = ingest_corpus(corpus_dir / "corpus.txt")
    if kind == "permuted":
        symbols = permute_characters(symbols, 1)
    assert _sha256(compress(symbols, len(alphabet))) == FRAME_SHA256[kind]


# the CSV without its last column, wall_seconds, and both SVGs
SWEEP_SHA256 = {
    "sweep.csv": "8ae1b7d30f07a32923a808230b0ad98b37fad2524102816a5b5296853baf8751",
    "fig-rules.svg": "612dac53dbf0bff3f42d10e4eabc9f693020ef343c14c378a41cf67acd3a62ef",
    "fig-block-length.svg": "25d5bebba18fdac4d0888bb337ee88764bdd98889b0e033a970c2d75557fb692",
}


def test_sweep_of_the_benchmark_grid(corpus_dir, tmp_path, monkeypatch):
    # the sweep workload's command; the CSV's source column and the legends
    # hold the corpus path, so it is named relative to the working directory
    monkeypatch.chdir(corpus_dir)
    assert main(["sweep", "--source", "corpus:corpus.txt",
                 "--source", "permuted-corpus:corpus.txt", "--source", "bernoulli:0.5",
                 "--n-grid", "2^13..2^20", "--seed", "5",
                 "--csv", str(tmp_path / "sweep.csv"), "--svg", str(tmp_path / "fig")]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].endswith(",wall_seconds") and len(lines) == 1 + 3 * 8
    got = {"sweep.csv": _sha256("\n".join(line.rsplit(",", 1)[0] for line in lines).encode())}
    for name in ("fig-rules.svg", "fig-block-length.svg"):
        got[name] = _sha256((tmp_path / name).read_bytes())
    assert got == SWEEP_SHA256


# per seed: the mi_bound of each whole piece, then (piece, cut, J) at each cut
MI_SPLITS = {
    5: ([12960, 3096],
        [(0, 14159, 4110), (0, 14050, 4344), (0, 2460, 4769), (0, 15156, 2389),
         (0, 13284, 5812), (1, 6904, 1151), (1, 10004, 1224), (1, 2799, 876),
         (1, 826, 452), (1, 8792, 1182)]),
    6: ([12960, 3096],
        [(0, 837, 1679), (0, 8960, 8848), (0, 5951, 8681), (0, 10128, 8718),
         (0, 10463, 8656), (1, 11268, 1141), (1, 2643, 845), (1, 8542, 1221),
         (1, 3219, 920), (1, 15645, 450)]),
}


@pytest.mark.parametrize("seed", sorted(MI_SPLITS))
def test_j_at_the_benchmark_cuts(corpus_path, tmp_path, seed):
    # the mi-splits workload's pieces, the corpus's first 2**14 bytes (its
    # build_corpus_text(2**14)) and Bernoulli(1/2), and its cuts: five a
    # piece from one generator
    path = tmp_path / "corpus.txt"
    path.write_bytes(corpus_path.read_bytes()[: 1 << 14])
    symbols, alphabet = ingest_corpus(path)
    pieces = [(symbols, SymbolCode(len(alphabet))),
              (gen_bernoulli((0.5, 0.5), 1 << 14, seed), SymbolCode(2))]
    bounds = [mi_bound(minimal_block_transform(code, x)) for x, code in pieces]
    rng = np.random.Generator(np.random.Philox(seed))
    splits = [(i, cut, pointwise_mi(code, x[:cut], x[cut:]))
              for i, (x, code) in enumerate(pieces)
              for cut in rng.integers(1, x.size, 5).tolist()]
    assert (bounds, splits) == MI_SPLITS[seed]
