"""Runs a workload's rounds, its checks and its traced run, and collects the metrics."""

from __future__ import annotations

import resource
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from perfbench.checks import CheckError
from perfbench.spans import Tracer, patched
from perfbench.workloads import FULL, TRACED, WORKLOADS, Op

OUT_DIR = Path(__file__).resolve().parent / "out"

# a run sets up at least this many times and until set-up has taken
# SETUP_SECONDS; setup_s is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

# spans reported by the traced run, as <module>.<function>
LAYER_FUNCTIONS = (
    "sources.ingest_corpus",
    "sources.permute_characters",
    "sources.gen_bernoulli",
    "sources.realize",
    "transform.compress",
    "transform.decompress",
    "transform.minimal_block_transform",
    "grammar.DictionaryGrammar",
    "grammar.BlockGrammar",
    "grammar.encode_grammar",
    "grammar.decode_grammar",
    "grammar.is_block_shaped",
    "grammar.expand",
    "codes.encode_symbol",
    "codes.decode_symbol",
    "bits.pack_frame",
    "bits.unpack_frame",
    "analysis.pointwise_mi",
    "analysis.mi_bound",
    "cli.run_sweep",
    "cli.records_to_csv",
    "plot.render_loglog_svg",
)
LAYER_COUNTS = (
    ("transform.symbols", "sym"),
    ("grammar.rules", "count"),
    ("grammar.codewords", "count"),
    ("bits.payload_bits", "bits"),
    ("bits.frame_bytes", "bytes"),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


class _Tally:
    """Operations of the rounds run so far and what their checks found."""

    def __init__(self) -> None:
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.code_bits = 0
        self.symbols = 0
        self.problems: list[str] = []


def _run_ops(workload, inputs, acc: _Tally, tr=None) -> list:
    """Every operation of one round, in order, before any of them is checked.

    With a tracer, the workload's ``probe`` (when it has one) re-times the
    steps inside each operation.  An operation that raises is counted as
    failed.
    """
    probe = getattr(workload, "probe", None) if tr is not None else None
    done = []
    for index, item in enumerate(workload.items(inputs)):
        acc.attempted += 1
        try:
            op = workload.run(inputs, item)
            if probe is not None:
                probe(tr)
        except CheckError as exc:
            acc.problems.append(str(exc))
            continue
        except Exception:
            traceback.print_exc()
            acc.failed += 1
            continue
        op.item = index
        done.append((item, op))
    return done


def _check_ops(workload, inputs, done: list, acc: _Tally, first: bool,
               keep_outputs: bool = False) -> list:
    """The checks of one round's operations; returns the operations that passed."""
    ops = []
    for item, op in done:
        try:
            bits, symbols = workload.check(inputs, item, op, first)
        except CheckError as exc:
            acc.problems.append(str(exc))
            continue
        except Exception as exc:  # a check that cannot read the output fails it
            acc.problems.append(f"{type(exc).__name__}: {exc}")
            continue
        acc.code_bits += bits
        acc.symbols += symbols
        if not keep_outputs:
            op.output = None
        ops.append(op)
    acc.ops.extend(ops)
    return ops


def _best(ops: list) -> list:
    """One operation per item, with its shortest times over the rounds.

    Other work on the machine only ever slows an operation down, so the
    shortest of its repeats is the steadiest estimate of its cost.
    """
    by_item: dict[int, list] = {}
    for op in ops:
        by_item.setdefault(op.item, []).append(op)
    return [
        Op(min(o.seconds for o in same), same[0].symbols, None,
           min(o.compress_s for o in same), min(o.decompress_s for o in same), item)
        for item, same in sorted(by_item.items())
    ]


def _setup(workload, seed, sizes, workdir):
    """Set up at least SETUP_REPEATS times and for SETUP_SECONDS; returns the
    last inputs and every set-up time."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = perf_counter()
        inputs = workload.setup(seed, sizes, workdir)
        times.append(perf_counter() - t0)
    return inputs, times


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=FULL,
                 out_dir: Path = OUT_DIR) -> dict:
    """Run one workload; returns the result object and prints detail lines.

    Input files live in a temporary directory under ``out_dir``, which also
    receives the spans of a traced run.
    """
    workload = WORKLOADS[name]()
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        if trace:
            return _traced(workload, seed, sizes, Path(tmp),
                           out_dir / f"trace-{name}-seed{seed}.json")
        inputs, setup_times = _setup(workload, seed, sizes, Path(tmp))
        acc = _Tally()
        measured = 0.0
        peak_rss = None
        while True:
            done = _run_ops(workload, inputs, acc)
            first = peak_rss is None
            if first:
                peak_rss = _peak_rss_mb()  # read before any check has run
            ops = _check_ops(workload, inputs, done, acc, first)
            measured += sum(op.seconds for op in ops)
            if measured >= seconds or not ops:
                break
    ops = _best(acc.ops)
    metrics = {}
    if ops:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "sym_per_s": (sum(op.symbols for op in ops) / sum(op.seconds for op in ops), "sym/s"),
            "op_p50_ms": (median(op.seconds for op in ops) * 1e3, "ms"),
            "code_bits_per_symbol": (acc.code_bits / max(acc.symbols, 1), "bits/sym"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        for key, value, unit in workload.details(ops, acc.ops):
            print(f"detail {name} {key} = {value:.6g} {unit}")
    return _result(acc, metrics)


def _traced(workload, seed: int, sizes, workdir: Path, trace_path: Path) -> dict:
    """Set-up and one round traced, after one untraced round; compares the two.

    The traced set-up and round call the program exactly as the untraced
    ones do, with the functions in ``TRACED`` wrapped in spans.
    """
    tr = Tracer()
    with patched(tr, TRACED):
        inputs = workload.setup(seed, sizes, workdir)
    plain = _Tally()
    plain_ops = _check_ops(workload, inputs, _run_ops(workload, inputs, plain), plain,
                           True, keep_outputs=True)
    acc = _Tally()
    with patched(tr, TRACED):
        done = _run_ops(workload, inputs, acc, tr)
    traced_ops = _check_ops(workload, inputs, done, acc, False, keep_outputs=True)
    acc.problems += plain.problems
    acc.failed += plain.failed
    acc.attempted += plain.attempted
    if len(plain_ops) != len(traced_ops) or not all(
        workload.same(a, b) for a, b in zip(plain_ops, traced_ops)
    ):
        acc.problems.append("traced outputs differ from untraced outputs")
    totals = tr.totals()
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        busy, own, calls = totals.get(fn, (0.0, 0.0, 0))
        metrics[f"{fn}.busy_s"] = (busy, "s")
        metrics[f"{fn}.self_s"] = (own, "s")
        metrics[f"{fn}.calls"] = (calls, "count")
    for key, unit in LAYER_COUNTS:
        metrics[key] = (tr.counts.get(key, 0), unit)
    untraced = sum(op.seconds for op in plain_ops)
    overhead = sum(op.seconds for op in traced_ops) - untraced
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced if untraced else 0.0, "%")
    tr.write(trace_path)
    print(f"detail {workload.name} spans written to {trace_path}")
    return _result(acc, metrics)


def _result(acc: _Tally, metrics: dict) -> dict:
    for problem in acc.problems:
        print(f"CHECK FAILED: {problem}")
    if acc.failed:
        print(f"FAILED: {acc.failed} of {acc.attempted} operations raised")
    return {
        "correct": not acc.problems and not acc.failed and bool(metrics),
        "attempted": acc.attempted,
        "failed": acc.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
