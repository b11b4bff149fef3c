"""The four workloads.

Each workload builds its inputs from a seed (``setup``), lists the
operations of one round (``items``), runs one operation through the public
API (``run``) and checks what an operation returned (``check``).  The
program is called through its module attributes, so the traced run can
wrap the functions listed in ``TRACED`` in spans (``spans.patched``) and
still call the same ``run``.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from minblock import (
    BitReader,
    BitString,
    BlockGrammar,
    DictionaryGrammar,
    SymbolCode,
    analysis,
    bits,
    cli,
    decode_symbol,
    encode_symbol,
    sources,
    transform,
)

from perfbench import checks
from perfbench.checks import require


def _count_transform(tr, result, code, u, *rest) -> None:
    tr.count("transform.symbols", len(u))
    tr.count("grammar.rules", result.num_rules)


def _count_frame(tr, frame, m, payload) -> None:
    tr.count("bits.payload_bits", len(payload))
    tr.count("bits.frame_bytes", len(frame))


# (module, attribute, span name, after) wrapped in spans by the traced run:
# every place the program looks up a function it calls, and the functions
# the workloads call themselves.
TRACED = (
    (sources, "ingest_corpus", "sources.ingest_corpus", None),
    (sources, "permute_characters", "sources.permute_characters", None),
    (sources, "gen_bernoulli", "sources.gen_bernoulli", None),
    (cli, "realize", "sources.realize", None),
    (transform, "compress", "transform.compress", None),
    (transform, "decompress", "transform.decompress", None),
    (transform, "minimal_block_transform", "transform.minimal_block_transform", _count_transform),
    (analysis, "minimal_block_transform", "transform.minimal_block_transform", _count_transform),
    (cli, "minimal_block_transform", "transform.minimal_block_transform", _count_transform),
    (transform, "encode_grammar", "grammar.encode_grammar", None),
    (transform, "decode_grammar", "grammar.decode_grammar", None),
    (transform, "is_block_shaped", "grammar.is_block_shaped", None),
    (transform, "expand", "grammar.expand", None),
    (bits, "pack_frame", "bits.pack_frame", _count_frame),
    (bits, "unpack_frame", "bits.unpack_frame", None),
    (analysis, "pointwise_mi", "analysis.pointwise_mi", None),
    (analysis, "mi_bound", "analysis.mi_bound", None),
    (cli, "run_sweep", "cli.run_sweep", None),
    (cli, "records_to_csv", "cli.records_to_csv", None),
    (cli, "render_loglog_svg", "plot.render_loglog_svg", None),
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the tests run every workload at ``SMOKE``."""

    text_n: int = 1 << 20  # roundtrip-text, and the corpus file of the sweep
    sweep_grid: str = "2^13..2^20"
    strings: int = 250  # short strings per round
    mi_n: int = 1 << 14  # length of each MI piece
    mi_cuts: int = 5  # cuts per piece and round


FULL = Sizes()
SMOKE = Sizes(text_n=1 << 11, sweep_grid="2^8..2^11", strings=24, mi_n=1 << 13, mi_cuts=2)


@dataclass
class Op:
    """One timed operation and what it returned."""

    seconds: float
    symbols: int  # input symbols the operation processed
    output: object
    compress_s: float = 0.0
    decompress_s: float = 0.0
    item: int = -1  # index of the operation within its round


def corpus_text(n: int) -> bytes:
    """The first ``n`` bytes of the test suite's English-like play corpus."""
    return checks.repo_module("tests/conftest.py").build_corpus_text(n)


class CodecWorkload:
    """Round trips through ``compress`` and ``decompress``."""

    name = ""

    def items(self, inputs):
        return inputs

    def run(self, inputs, item) -> Op:
        u, m = item
        t0 = perf_counter()
        frame = transform.compress(u, m)
        t1 = perf_counter()
        out, m_out = transform.decompress(frame)
        t2 = perf_counter()
        return Op(t2 - t0, len(u), (frame, out, m_out), t1 - t0, t2 - t1)

    @staticmethod
    def probe(tr) -> None:
        """Time again, on their own, the steps inside the transform and codec.

        Building and validating the winning rules happens at the end of the
        transform and again inside ``decode_grammar``; the codeword loops
        are the part of ``encode_grammar`` and ``decode_grammar`` spent on
        single codewords.  Reads the last transform and payload of the
        traced round.
        """
        result = tr.last["transform.minimal_block_transform"]
        payload = tr.last["grammar.encode_grammar"]
        d = result.dictionary
        code = SymbolCode(d.m)
        with tr.span("grammar.DictionaryGrammar"):
            DictionaryGrammar(d.m, d.rules)
        if isinstance(result.grammar, BlockGrammar):
            g = result.grammar
            with tr.span("grammar.BlockGrammar"):
                BlockGrammar(d, g.k, g.head_len, g.tail_len)
        with tr.span("codes.encode_symbol"):
            out = BitString()
            for rule in d.rules:
                for e in rule:
                    encode_symbol(code, e, out)
                encode_symbol(code, 0, out)
            encode_symbol(code, -1, out)
        with tr.span("codes.decode_symbol"):
            reader = BitReader(payload)
            codewords = 1
            while decode_symbol(code, reader) != -1:
                codewords += 1
        require(out == payload, "codeword loop and encode_grammar disagree")
        require(reader.remaining == 0, "codeword loop stopped before the payload end")
        tr.count("grammar.codewords", codewords)

    def check(self, inputs, item, op: Op, first: bool) -> tuple[int, int]:
        u, m = item
        frame, out, m_out = op.output
        return checks.check_codec(u, m, frame, out, m_out), len(u)

    def same(self, a: Op, b: Op) -> bool:
        return a.output[0] == b.output[0] and np.array_equal(a.output[1], b.output[1])

    def details(self, ops: list[Op], raw: list[Op]) -> list[tuple[str, float, str]]:
        symbols = sum(op.symbols for op in ops)
        return [
            ("compress_sym_per_s", symbols / sum(op.compress_s for op in ops), "sym/s"),
            ("decompress_sym_per_s", symbols / sum(op.decompress_s for op in ops), "sym/s"),
        ]


class RoundtripText(CodecWorkload):
    """The corpus prefix and its character permutation, as a file user has them."""

    name = "roundtrip-text"

    def setup(self, seed: int, sizes: Sizes, workdir: Path):
        path = workdir / "corpus.txt"
        path.write_bytes(corpus_text(sizes.text_n))
        symbols, alphabet = sources.ingest_corpus(path)
        permuted = sources.permute_characters(symbols, seed)
        return [(symbols, len(alphabet)), (permuted, len(alphabet))]


class ShortStrings(CodecWorkload):
    """Uniform random strings, m in {2, 27}, lengths as in acceptance criterion 2."""

    name = "short-strings"

    def __init__(self) -> None:
        self.minimal_checked: dict[str, int] = {}

    def setup(self, seed: int, sizes: Sizes, workdir: Path):
        rng = np.random.Generator(np.random.Philox(seed))
        count = sizes.strings // 2  # each length once with m = 2 and once with m = 27
        lengths = rng.permutation(np.concatenate([
            rng.integers(0, 257, count - count // 4),
            rng.integers(257, 2001, count // 4),
        ]))
        seeds = rng.integers(0, 1 << 63, 2 * count).tolist()
        strings = []
        for n in lengths.tolist():
            for m in (2, 27):
                u = sources.gen_bernoulli([1.0 / m] * m, n, seeds.pop())
                strings.append((u, m))
        return strings

    def check(self, inputs, item, op: Op, first: bool) -> tuple[int, int]:
        code_bits, n = super().check(inputs, item, op, first)
        if first:
            method = checks.check_minimal(item[0], item[1], code_bits)
            if method:
                self.minimal_checked[method] = self.minimal_checked.get(method, 0) + 1
        return code_bits, n

    def details(self, ops: list[Op], raw: list[Op]) -> list[tuple[str, float, str]]:
        p99 = float(np.percentile([op.seconds for op in raw], 99)) * 1e3
        checked = ", ".join(f"{v} by {k}" for k, v in sorted(self.minimal_checked.items()))
        return super().details(ops, raw) + [
            ("roundtrip_p99_ms", p99, f"ms (all {len(raw)} round trips)"),
            ("minimal_checked", sum(self.minimal_checked.values()), f"strings ({checked})"),
        ]


@dataclass
class SweepInputs:
    argv: list[str]
    workdir: Path
    ns: list[int]
    streams: dict  # CSV source label -> (symbols, alphabet size)

    @property
    def symbols(self) -> int:
        return sum(sum(n for n in self.ns if n <= s.size) for s, _ in self.streams.values())


class Sweep:
    """``minblock sweep`` over the corpus, its permutation and Bernoulli(1/2)."""

    name = "sweep"

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> SweepInputs:
        path = workdir / "corpus.txt"
        path.write_bytes(corpus_text(sizes.text_n))
        ns = cli.parse_grid(sizes.sweep_grid)
        symbols, alphabet = sources.ingest_corpus(path)
        m = len(alphabet)
        permuted = sources.permute_characters(symbols, seed)
        bern = sources.gen_bernoulli((0.5, 0.5), max(ns), seed)
        streams = {
            f"corpus:{path}": (symbols, m),
            f"permuted-corpus:{path}": (permuted, m),
            "bernoulli:0.5": (bern, 2),
        }
        argv = ["sweep"]
        for label in streams:
            argv += ["--source", label]
        argv += ["--csv", str(workdir / "sweep.csv"), "--svg", str(workdir / "fig"),
                 "--n-grid", sizes.sweep_grid, "--seed", str(seed)]
        return SweepInputs(argv, workdir, ns, streams)

    def items(self, inputs: SweepInputs):
        return [inputs.argv]

    @staticmethod
    def _paths(inputs: SweepInputs) -> list[Path]:
        return [inputs.workdir / "sweep.csv"] + [
            inputs.workdir / f"fig-{name}.svg" for name in ("rules", "block-length")
        ]

    def _outputs(self, inputs: SweepInputs):
        csv_path, *svg_paths = self._paths(inputs)
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        return rows, [p.read_text() for p in svg_paths]

    def run(self, inputs: SweepInputs, argv) -> Op:
        for path in self._paths(inputs):
            path.unlink(missing_ok=True)
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        seconds = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"minblock sweep exited with {rc}")
        return Op(seconds, inputs.symbols, self._outputs(inputs))

    def check(self, inputs: SweepInputs, argv, op: Op, first: bool) -> tuple[int, int]:
        rows, svgs = op.output
        want = [(label, n) for label, (s, _) in inputs.streams.items()
                for n in inputs.ns if n <= s.size]
        require([(r["source"], int(r["n"])) for r in rows] == want,
                "sweep rows do not cover every source and length of the grid")
        code_bits = 0
        for row in rows:
            stream, m = inputs.streams[row["source"]]
            code_bits += checks.check_sweep_row(row, stream, m)
        for svg in svgs:
            require(svg.startswith("<svg") and "slope" in svg, "sweep figure is not an SVG plot")
        return code_bits, inputs.symbols

    def same(self, a: Op, b: Op) -> bool:
        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wall_seconds"} for r in rows]

        return strip(a.output[0]) == strip(b.output[0])

    def details(self, ops: list[Op], raw: list[Op]) -> list[tuple[str, float, str]]:
        return [("sweep_s", median(op.seconds for op in ops), "s")]


@dataclass
class MIInputs:
    seed: int
    pieces: list  # (symbols, SymbolCode)
    cuts: list  # (piece index, cut)
    bounds: list  # per piece: the whole piece's transform and its mi_bound


class MISplits:
    """``pointwise_mi`` at random cuts of a corpus piece and a Bernoulli(1/2) piece.

    Set-up also transforms each whole piece and takes its ``mi_bound``, the
    bound every split of the piece is held to.  The first round's checks
    hold a seeded sample of short strings to their exhaustive minimum.
    """

    name = "mi-splits"

    def __init__(self) -> None:
        self.minimal_checked: dict[str, int] = {}

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> MIInputs:
        path = workdir / "corpus.txt"
        path.write_bytes(corpus_text(sizes.mi_n))
        symbols, alphabet = sources.ingest_corpus(path)
        bern = sources.gen_bernoulli((0.5, 0.5), sizes.mi_n, seed)
        pieces = [(symbols, SymbolCode(len(alphabet))), (bern, SymbolCode(2))]
        bounds = []
        for x, code in pieces:
            whole = transform.minimal_block_transform(code, x)
            bounds.append((whole, analysis.mi_bound(whole)))
        rng = np.random.Generator(np.random.Philox(seed))
        cuts = [(i, cut) for i, (x, _) in enumerate(pieces)
                for cut in rng.integers(1, x.size, sizes.mi_cuts).tolist()]
        return MIInputs(seed, pieces, cuts, bounds)

    def items(self, inputs: MIInputs):
        return inputs.cuts

    def run(self, inputs: MIInputs, item) -> Op:
        i, cut = item
        x, code = inputs.pieces[i]
        t0 = perf_counter()
        j = analysis.pointwise_mi(code, x[:cut], x[cut:])
        return Op(perf_counter() - t0, x.size, j)

    def check(self, inputs: MIInputs, item, op: Op, first: bool) -> tuple[int, int]:
        if first and not self.minimal_checked:
            self.minimal_checked = checks.check_short_sample(inputs.seed)
        i, cut = item
        whole, bound = inputs.bounds[i]
        require(whole.block_len >= 1, "the whole piece has the terminal grammar; no MI bound")
        checks.check_mi_split(op.output, bound, cut)
        return whole.code_bits, inputs.pieces[i][0].size

    def same(self, a: Op, b: Op) -> bool:
        return a.output == b.output

    def details(self, ops: list[Op], raw: list[Op]) -> list[tuple[str, float, str]]:
        checked = ", ".join(f"{v} by {k}" for k, v in sorted(self.minimal_checked.items()))
        return [
            ("mi_splits_per_s", len(ops) / sum(op.seconds for op in ops), "1/s"),
            ("minimal_checked", sum(self.minimal_checked.values()), f"short strings ({checked})"),
        ]


WORKLOADS = {w.name: w for w in (RoundtripText, Sweep, ShortStrings, MISplits)}
