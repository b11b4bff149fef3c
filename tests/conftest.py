"""Shared fixtures: a deterministic English-like corpus for the big runs.

The sandbox has no downloadable texts, so the corpus tests build one: a
play-like document sampled word by word from a Zipf-weighted vocabulary,
with speaker headings, stage directions, and punctuation.  Everything is
driven by a Philox generator, so the file is identical across runs.
"""

from __future__ import annotations

import numpy as np
import pytest

_WORDS = """
the of and to a in that he his it was for with as is not on her be at by
king lord sir lady love night day death life heart hand eye blood sword
crown honour grace father mother son daughter brother friend enemy world
heaven earth soul spirit ghost battle war peace sleep dream fear hope joy
sorrow tears laughter music song dance feast wine bread gold silver ring
letter word tongue speech silence truth lies oath promise curse blessing
prayer church bell tower gate wall castle court throne banner horse rider
road river sea storm wind rain sun moon star shadow light darkness fire
ice winter summer spring autumn morning evening noon midnight hour time
year age youth old man men woman women child children people crowd army
soldier captain guard servant messenger fool priest witch queen prince
princess duke earl knight squire page cook nurse doctor lawyer merchant
sailor beggar thief murder treason plot secret counsel news tidings haste
speed delay doubt question answer reason cause purpose end beginning
middle part whole half none all some many few more less most least very
much such same other another each every either neither both which what
who whom whose when where why how if then else while until before after
since against toward between among within without above below under over
through across around about again once twice thrice never always often
seldom soon late early now here there hence thence whither hither away
come go stay leave return depart arrive enter exit speak say tell ask
call cry shout whisper sing play fight strike wound kill die live breathe
see look watch behold hear listen touch feel taste smell think know
believe doubt remember forget hope wish want need give take bring carry
send receive keep hold lose find seek hunt follow lead drive ride walk
run stand sit lie fall rise climb swim fly bear wear tear break make
build destroy open close lock hide show prove swear forgive pardon blame
praise mock scorn pity help harm save spare yield conquer obey command
serve rule reign banish exile welcome greet farewell thanks mercy justice
law right wrong good evil fair foul sweet bitter kind cruel brave coward
wise foolish mad sane proud humble rich poor strong weak young fresh
weary sick whole sound false true loyal faithless gentle rough soft hard
heavy light quick slow deep shallow high low long short broad narrow
great small mighty feeble noble base royal common strange familiar dear
cheap dread dreadful happy wretched blessed cursed holy profane
""".split()

_NAMES_A = ["Bel", "Cor", "Dor", "Fal", "Gal", "Hel", "Isa", "Lor", "Mal",
            "Nor", "Oct", "Per", "Ros", "Sil", "Tor", "Val"]
_NAMES_B = ["amond", "antha", "dore", "ethia", "gar", "inda", "lio", "mund",
            "ric", "sella", "thorn", "vane", "wick"]


def build_corpus_text(target_bytes: int, seed: int = 20260810) -> bytes:
    """Deterministic play-like English text of roughly ``target_bytes``."""
    rng = np.random.Generator(np.random.Philox(seed))
    vocab = np.array(_WORDS)
    ranks = np.arange(1, vocab.size + 1, dtype=float)
    weights = 1.0 / (ranks + 2.0)
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0

    names = [a + b for a in _NAMES_A for b in _NAMES_B]

    def sample_words(count: int) -> list[str]:
        draws = rng.random(count)
        return [vocab[int(i)] for i in np.searchsorted(cdf, draws, side="right")]

    out: list[str] = []
    size = 0
    act = 1
    while size < target_bytes:
        scene_start = len(out)
        out.append(f"ACT {act}. SCENE {int(rng.integers(1, 6))}.\n\n")
        act += 1
        for _ in range(int(rng.integers(6, 14))):  # speeches per scene
            speaker = names[int(rng.integers(0, len(names)))].upper()
            out.append(speaker + ".\n")
            for _ in range(int(rng.integers(1, 5))):  # sentences per speech
                words = sample_words(int(rng.integers(4, 15)))
                words[0] = words[0].capitalize()
                if rng.random() < 0.12:
                    idx = int(rng.integers(1, len(words)))
                    words[idx] = names[int(rng.integers(0, len(names)))]
                sentence = " ".join(words)
                mark = "?" if rng.random() < 0.15 else ("!" if rng.random() < 0.1 else ".")
                out.append(sentence + mark + "\n")
            out.append("\n")
            if rng.random() < 0.15:
                out.append(f"[{sample_words(1)[0].capitalize()} exits]\n\n")
        size += sum(len(s) for s in out[scene_start:])
    text = "".join(out).encode("ascii")
    return text[:target_bytes]


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    """A ~1.4 MB English-like corpus file (session cached)."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    path.write_bytes(build_corpus_text(1_400_000))
    return path


@pytest.fixture(scope="session")
def corpus_symbols(corpus_path):
    from minblock.sources import ingest_corpus

    return ingest_corpus(corpus_path)
