"""Command line front end: compression, analysis, and the experiment sweep.

Exit codes: 0 success, 1 usage or domain error or out of memory, 2 I/O
error, 3 corrupt input (a damaged frame, or one whose grammar is not the
block grammar ``encode`` writes).  Output files are written to temporary siblings and
renamed once all are written, so a failed run never leaves partial output
behind.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import _mi_and_joint, hilberg_exponent, block_entropy, mi_bound
from .bits import CodecError, unpack_frame
from .codes import SymbolCode
from .plot import Series, render_loglog_svg
from .sources import (
    SourceSpec,
    first_appearance_alphabet,
    ingest_corpus,
    map_bytes_to_symbols,
    permute_characters,
    realize,
)
from .transform import compress, decode, minimal_block_transform

_DEFAULT_GRID = "2^10..2^22"
_DECODE_LIMIT = 1 << 31

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for I/O
        raise UsageError(message)


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep row: transform statistics for a (source, n) pair.

    The fields, in order, are the sweep's CSV columns; a ``format`` in a
    field's metadata is the format spec of its CSV cell.

    ``rules`` counts the primary rule too, as ``DictionaryGrammar.num_rules``
    does: it is 1 for the bare terminal grammar (``block_len == 0``) and the
    number of distinct blocks plus one otherwise.
    """

    source: str
    n: int
    shift: int
    rules: int
    block_len: int
    code_bits: int
    bits_per_symbol: float = field(metadata={"format": ".6f"})
    wall_seconds: float = field(metadata={"format": ".3f"})


CSV_FIELDS = tuple(f.name for f in fields(ExperimentRecord))


def _write_atomic(outputs: dict[str, bytes | np.ndarray]) -> None:
    """Write each path's bytes (or array buffer) to a temporary sibling, then
    rename them all.

    No output is renamed into place until every one is written.  Each gets
    the mode a new file gets under the process umask.
    """
    umask = os.umask(0)  # reading the mask means setting it; no other thread runs here
    os.umask(umask)
    temps = []
    try:
        for path, data in outputs.items():
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".minblock-")
            temps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in zip(temps, outputs):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _parse_probs(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad probability list {text!r}") from exc
    if len(values) == 1:
        p = values[0]
        values = (p, 1.0 - p)
    return values


def parse_source(spec: str, seed: int) -> SourceSpec:
    """Parse a ``kind:params`` source description used by sweep and gen.

    ``SourceSpec`` checks the kind and that a corpus has a path.
    """
    kind, _, rest = spec.partition(":")
    if kind == "bernoulli":
        return SourceSpec(kind="bernoulli", probs=_parse_probs(rest or "0.5"),
                          seed=seed, label=spec)
    if kind == "markov":
        try:
            with open(rest) as fh:
                table = json.load(fh)
            rows = tuple(tuple(float(x) for x in row) for row in table["transitions"])
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise UsageError(f"bad markov table {rest!r}: {exc}") from exc
        return SourceSpec(kind="markov", transitions=rows, seed=seed, label=spec)
    return SourceSpec(kind=kind, path=rest, seed=seed, label=spec)


def parse_grid(text: str) -> list[int]:
    """Either dyadic ``2^a..2^b`` or an explicit comma list of lengths."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            a = int(lo.removeprefix("2^"))
            b = int(hi.removeprefix("2^"))
        except ValueError as exc:
            raise UsageError(f"bad grid {text!r}") from exc
        if not lo.startswith("2^") or not hi.startswith("2^") or not 0 <= a <= b:
            raise UsageError(f"bad grid {text!r}")
        return [1 << j for j in range(a, b + 1)]
    try:
        ns = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}") from exc
    if ns[0] < 1 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise UsageError("grid lengths must be positive and increasing")
    return ns


def _cpu_count() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is not on every platform
        return os.cpu_count() or 1


def _sweep_row(label: str, code: SymbolCode, stream, n: int) -> ExperimentRecord:
    start = time.perf_counter()
    result = minimal_block_transform(code, stream[:n])
    wall = time.perf_counter() - start
    return ExperimentRecord(
        source=label,
        n=n,
        shift=result.shift,
        rules=result.num_rules,
        block_len=result.block_len,
        code_bits=result.code_bits,
        bits_per_symbol=result.code_bits / n,
        wall_seconds=wall,
    )


def run_sweep(specs, ns, *, warn=None) -> list[ExperimentRecord]:
    """Transform each source prefix on the grid and collect the records.

    Lengths beyond a source's size are skipped, each reported via ``warn``
    before any transform runs, in row order.  Rows are ordered by source
    then by n.

    The transforms run concurrently, on up to one thread per CPU this
    process may use: numpy releases the interpreter lock in the sorts,
    gathers and ufuncs a transform is made of.  With numpy 2.4.6 on a 2-vCPU
    VM, a Python loop kept a median 0.88 of its speed beside the index's
    default argsort of 2^20 packed corpus words, and two threads ran that
    sort a median 1.96 times as fast as one (10 runs each).  The largest n
    starts first, ties in row order (list scheduling, longest job first).
    A transform's memory grows with its n, so one starts only while its n
    and the n of those running sum to at most 3/2 of the largest n on the
    grid, or when none is running; the peak memory stays near that of one
    transform at a time.
    ``wall_seconds`` is the wall time of the row's own transform, and rows
    may overlap in time.  If a transform raises, no further one starts, and
    the exception propagates once the running ones have finished.
    """
    rows = []  # the arguments of _sweep_row, in row order
    for spec in specs:
        stream, m = realize(spec, max(ns))
        code = SymbolCode(max(2, m))
        for n in ns:
            if n <= stream.size:
                rows.append((spec.label, code, stream, n))
            elif warn:
                warn(f"skipping n={n} for {spec.label}: source has only "
                     f"{stream.size} symbols")
    records: list = [None] * len(rows)
    pending = sorted(range(len(rows)), key=lambda i: -rows[i][3])
    budget = 3 * max((row[3] for row in rows), default=0)  # twice 3/2 of the largest n
    workers = _cpu_count()
    running = {}  # future -> row index
    error = None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while running or pending:
            for i in list(pending):
                load = rows[i][3] + sum(rows[j][3] for j in running.values())
                if len(running) < workers and (not running or 2 * load <= budget):
                    running[pool.submit(_sweep_row, *rows[i])] = i
                    pending.remove(i)
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i = running.pop(future)
                if future.exception() is None:
                    records[i] = future.result()
                elif error is None:
                    error = future.exception()
                    pending.clear()  # no further transform starts
    if error is not None:
        raise error
    return records


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    columns = fields(ExperimentRecord)
    for r in records:
        writer.writerow(format(getattr(r, f.name), f.metadata.get("format", ""))
                        for f in columns)
    return buf.getvalue()


def _series_for(records, labels, column) -> list[Series]:
    out = []
    for label in labels:
        rows = [r for r in records if r.source == label]
        ns = tuple(r.n for r in rows)
        values = tuple(float(getattr(r, column)) for r in rows)
        try:
            slope = hilberg_exponent(zip(ns, values))
        except ValueError:
            slope = None
        out.append(Series(label=label, ns=ns, values=values, slope=slope))
    return out


# (column, title, file name) of each SVG of `minblock sweep --svg PREFIX`,
# written to PREFIX-NAME.svg
_SWEEP_PLOTS = (
    ("rules", "Grammar rules vs prefix length", "rules"),
    ("block_len", "Block length vs prefix length", "block-length"),
)


def _sweep_svgs(records, labels, paths) -> dict[str, bytes]:
    svgs = {}
    for (column, title, _), path in zip(_SWEEP_PLOTS, paths):
        svg = render_loglog_svg(
            _series_for(records, labels, column),
            title=title,
            xlabel="prefix length n",
            ylabel=title.split(" vs ")[0],
        )
        svgs[path] = svg.encode()
    return svgs


def _alphabet(args) -> list[int]:
    """The first-appearance alphabet of ``--alphabet-from-file``, else all 256 bytes."""
    if args.alphabet_from_file:
        return first_appearance_alphabet(_read_bytes(args.alphabet_from_file))
    return list(range(256))


def _cmd_encode(args) -> int:
    data = _read_bytes(args.input)
    alphabet = _alphabet(args)
    symbols = map_bytes_to_symbols(data, alphabet)
    _write_atomic({args.output: compress(symbols, max(2, len(alphabet)))})
    return 0


def _cmd_decode(args) -> int:
    # the alphabet is checked against the frame's m before the payload is
    # expanded, which may take gigabytes
    m, bits = unpack_frame(_read_bytes(args.input))
    if not args.alphabet_from_file and m != 256:
        raise UsageError(
            "payload uses a custom alphabet; pass --alphabet-from-file with "
            "the file the encoder used"
        )
    alphabet = _alphabet(args)
    # the encoder codes a file's alphabet with max(2, size) symbols
    if max(2, len(alphabet)) != m:
        raise UsageError(
            f"alphabet size {len(alphabet)} does not match the payload's {m}"
        )
    symbols = decode(SymbolCode(m), bits, max_len=_DECODE_LIMIT)
    # so a one-byte alphabet fits a frame of m = 2, which can still hold symbol 2
    top = int(symbols.max()) if symbols.size else 0
    if top > len(alphabet):
        raise UsageError(
            f"the payload uses symbol {top}, which the alphabet file has no byte for"
        )
    table = np.array([0, *alphabet], dtype=np.uint8)  # the byte of symbol s is table[s]
    _write_atomic({args.output: table[symbols]})
    return 0


def _cmd_sweep(args) -> int:
    if len(set(args.source)) < len(args.source):
        raise UsageError("each source may be given only once")
    svgs = [f"{args.svg}-{fname}.svg" for *_, fname in _SWEEP_PLOTS] if args.svg else []
    paths = [args.csv, *svgs]
    # the outputs are keyed by path, so one file named twice would hold only
    # the last of them
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise UsageError(f"the outputs must be different files: {', '.join(paths)}")
    specs = [parse_source(s, args.seed) for s in args.source]
    ns = parse_grid(args.n_grid)
    records = run_sweep(specs, ns, warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
    outputs = {args.csv: records_to_csv(records).encode()}
    outputs.update(_sweep_svgs(records, args.source, svgs))
    _write_atomic(outputs)
    for path in list(outputs)[1:]:
        print(f"wrote {path}")
    print(f"wrote {args.csv} ({len(records)} rows)")
    return 0


def _cmd_mi(args) -> int:
    u_bytes = _read_bytes(args.u)
    v_bytes = _read_bytes(args.v)
    alphabet = first_appearance_alphabet(u_bytes + v_bytes)
    m = max(2, len(alphabet))
    code = SymbolCode(m)
    u = map_bytes_to_symbols(u_bytes, alphabet)
    v = map_bytes_to_symbols(v_bytes, alphabet)
    j, result = _mi_and_joint(code, u, v)
    bound = mi_bound(result)
    print(f"J_bits={j}")
    print(f"rules={result.num_rules}")
    print(f"block_len={result.block_len}")
    print(f"bound_bits={bound}")
    print(f"slack_bits={bound - j}")
    return 0


def _cmd_gen(args) -> int:
    spec = parse_source(args.kind_spec, args.seed)
    if spec.kind not in {"bernoulli", "markov"}:
        raise UsageError("gen supports bernoulli:* and markov:* sources")
    symbols, m = realize(spec, args.n)
    if m > 255:
        raise UsageError("gen writes one byte per symbol; alphabet must be <= 255")
    _write_atomic({args.output: np.asarray(symbols, dtype=np.uint8).tobytes()})
    return 0


def _cmd_permute(args) -> int:
    data = np.frombuffer(_read_bytes(args.input), dtype=np.uint8)
    _write_atomic({args.output: permute_characters(data, args.seed).tobytes()})
    return 0


def _cmd_entropy(args) -> int:
    symbols, _ = ingest_corpus(args.input)
    h = block_entropy(symbols, args.k, overlapping=not args.disjoint)
    print(f"block_entropy_bits={h:.6f}")
    print(f"bits_per_symbol={h / args.k:.6f}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="minblock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("encode", help="compress a file into an MBLK frame")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--alphabet-from-file", metavar="PATH",
                   help="map bytes through the first-appearance alphabet of PATH "
                        "(pass the same flag to decode)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decompress an MBLK frame")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--alphabet-from-file", metavar="PATH",
                   help="the file passed to encode: its first-appearance alphabet "
                        "must have the frame's size; a file with the same bytes "
                        "in another order is not detected, since the frame holds "
                        "no alphabet")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "sweep", help="transform prefixes of sources, emit CSV/SVG",
        description="Transform the prefix of each source at each grid length and "
                    "write one CSV row per (source, n), in grid order.  The "
                    "transforms run concurrently, on up to one thread per CPU "
                    "this process may use, largest n first; one starts only "
                    "while the n of those running, its own included, sum to at "
                    "most 3/2 of the largest n on the grid, which keeps the "
                    "peak memory near that of one transform at a time.  "
                    "wall_seconds is the wall time of the row's own transform; "
                    "rows may overlap in time.")
    p.add_argument("--source", action="append", required=True,
                   metavar="KIND:PARAMS",
                   help="bernoulli:P[,P2..] | markov:TABLE.json | corpus:PATH | "
                        "permuted-corpus:PATH (repeatable)")
    p.add_argument("--csv", required=True, help="output CSV path")
    p.add_argument("--svg", default=None, metavar="PREFIX",
                   help="also write PREFIX-rules.svg and PREFIX-block-length.svg")
    p.add_argument("--n-grid", default=_DEFAULT_GRID,
                   help="2^a..2^b or comma list (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mi", help="pointwise mutual information of two files")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_mi)

    p = sub.add_parser("gen", help="write a synthetic symbol stream as bytes")
    p.add_argument("kind_spec", metavar="KIND:PARAMS",
                   help="bernoulli:P[,P2..] or markov:TABLE.json")
    p.add_argument("output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("permute", help="seeded uniform shuffle of a file's bytes")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_permute)

    p = sub.add_parser("entropy", help="empirical block entropy of a file")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--disjoint", action="store_true",
                   help="count disjoint blocks instead of overlapping windows")
    p.set_defaults(func=_cmd_entropy)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except CodecError as exc:
        print(f"corrupt input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
