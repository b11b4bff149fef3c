"""Command line front end: compression, analysis, and the experiment sweep.

Exit codes: 0 success, 1 usage or domain error, 2 I/O error, 3 corrupt
input.  Output files are written to a temporary sibling and renamed, so a
failed run never leaves partial output behind.
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
from dataclasses import dataclass

import numpy as np

from .analysis import hilberg_exponent, block_entropy, mi_bound, pointwise_mi
from .bits import CodecError, pack_frame, unpack_frame
from .codes import SymbolCode
from .plot import Series, render_loglog_svg
from .sources import (
    SourceSpec,
    alphabet_size,
    first_appearance_alphabet,
    map_bytes_to_symbols,
    permute_characters,
    realize,
)
from .transform import decode, encode, minimal_block_transform

_DEFAULT_GRID = "2^10..2^22"
_DECODE_LIMIT = 1 << 31

CSV_FIELDS = (
    "source",
    "n",
    "shift",
    "rules",
    "block_len",
    "code_bits",
    "bits_per_symbol",
    "wall_seconds",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for I/O
        raise UsageError(message)


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep row: transform statistics for a (source, n) pair.

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
    bits_per_symbol: float
    wall_seconds: float


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".minblock-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
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
    """Parse a ``kind:params`` source description used by sweep and gen."""
    kind, _, rest = spec.partition(":")
    if kind == "bernoulli":
        return SourceSpec(kind="bernoulli", probs=_parse_probs(rest or "0.5"),
                          seed=seed, label=spec)
    if kind == "markov":
        try:
            with open(rest) as fh:
                table = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad markov table {rest!r}: {exc}") from exc
        rows = tuple(tuple(float(x) for x in row) for row in table["transitions"])
        return SourceSpec(kind="markov", transitions=rows, seed=seed, label=spec)
    if kind in {"corpus", "permuted-corpus"}:
        if not rest:
            raise UsageError(f"source {spec!r} needs a file path")
        return SourceSpec(kind=kind, path=rest, seed=seed, label=spec)
    raise UsageError(f"unknown source kind {kind!r}")


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
        if not lo.startswith("2^") or not hi.startswith("2^") or a > b:
            raise UsageError(f"bad grid {text!r}")
        return [1 << j for j in range(a, b + 1)]
    try:
        ns = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}") from exc
    if any(n < 1 for n in ns) or sorted(ns) != ns:
        raise UsageError("grid lengths must be positive and increasing")
    return ns


def run_sweep(specs, ns, *, kmax=None, warn=None) -> list[ExperimentRecord]:
    """Transform each source prefix on the grid and collect the records.

    Lengths beyond a source's size are skipped (reported via ``warn``).
    Rows are ordered by source then by n.
    """
    records: list[ExperimentRecord] = []
    for spec in specs:
        stream = realize(spec, max(ns))
        m = max(2, alphabet_size(spec, stream))
        code = SymbolCode(m)
        for n in ns:
            if n > stream.size:
                if warn:
                    warn(f"skipping n={n} for {spec.label}: source has only "
                         f"{stream.size} symbols")
                continue
            start = time.perf_counter()
            result = minimal_block_transform(code, stream[:n], kmax=kmax)
            wall = time.perf_counter() - start
            records.append(
                ExperimentRecord(
                    source=spec.label,
                    n=n,
                    shift=result.shift,
                    rules=result.num_rules,
                    block_len=result.block_len,
                    code_bits=result.code_bits,
                    bits_per_symbol=result.code_bits / n,
                    wall_seconds=wall,
                )
            )
    return records


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow(
            [
                r.source,
                r.n,
                r.shift,
                r.rules,
                r.block_len,
                r.code_bits,
                f"{r.bits_per_symbol:.6f}",
                f"{r.wall_seconds:.3f}",
            ]
        )
    return buf.getvalue()


def _series_for(records, labels, field) -> list[Series]:
    out = []
    for label in labels:
        rows = [r for r in records if r.source == label]
        ns = tuple(r.n for r in rows)
        values = tuple(float(getattr(r, field)) for r in rows)
        try:
            slope = hilberg_exponent(zip(ns, values))
        except ValueError:
            slope = None
        out.append(Series(label=label, ns=ns, values=values, slope=slope))
    return out


def _sweep_svgs(records, labels, prefix: str) -> list[str]:
    paths = []
    for field, title, fname in (
        ("rules", "Grammar rules vs prefix length", "rules"),
        ("block_len", "Block length vs prefix length", "block-length"),
    ):
        svg = render_loglog_svg(
            _series_for(records, labels, field),
            title=title,
            xlabel="prefix length n",
            ylabel=title.split(" vs ")[0],
        )
        path = f"{prefix}-{fname}.svg"
        _write_atomic(path, svg.encode())
        paths.append(path)
    return paths


def _cmd_encode(args) -> int:
    data = _read_bytes(args.input)
    if args.alphabet_from_file:
        alphabet = first_appearance_alphabet(_read_bytes(args.alphabet_from_file))
        symbols = map_bytes_to_symbols(data, alphabet)
        m = max(2, len(alphabet))
    else:
        symbols = np.frombuffer(data, dtype=np.uint8).astype(np.uint16) + 1
        m = 256
    code = SymbolCode(m)
    frame = pack_frame(m, encode(code, symbols, kmax=args.kmax_override))
    _write_atomic(args.output, frame)
    return 0


def _cmd_decode(args) -> int:
    m, bits = unpack_frame(_read_bytes(args.input))
    symbols = decode(SymbolCode(m), bits, max_len=_DECODE_LIMIT)
    if args.alphabet_from_file:
        alphabet = first_appearance_alphabet(_read_bytes(args.alphabet_from_file))
        if symbols.size and int(symbols.max()) > len(alphabet):
            raise UsageError("alphabet file is too small for this payload")
        table = np.array(alphabet or [0], dtype=np.uint8)
        out = table[np.asarray(symbols, dtype=np.int64) - 1].tobytes()
    elif m == 256:
        out = (np.asarray(symbols, dtype=np.uint16) - 1).astype(np.uint8).tobytes()
    else:
        raise UsageError(
            "payload uses a custom alphabet; pass --alphabet-from-file with "
            "the file the encoder used"
        )
    _write_atomic(args.output, out)
    return 0


def _cmd_sweep(args) -> int:
    specs = [parse_source(s, args.seed) for s in args.source]
    ns = parse_grid(args.n_grid)
    records = run_sweep(
        specs, ns, kmax=args.kmax_override,
        warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
    )
    _write_atomic(args.csv, records_to_csv(records).encode())
    if args.svg:
        for path in _sweep_svgs(records, [s.label for s in specs], args.svg):
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
    j = pointwise_mi(code, u, v)
    result = minimal_block_transform(code, np.concatenate([u, v]))
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
    symbols = realize(spec, args.n)
    if alphabet_size(spec, symbols) > 255:
        raise UsageError("gen writes one byte per symbol; alphabet must be <= 255")
    _write_atomic(args.output, np.asarray(symbols, dtype=np.uint8).tobytes())
    return 0


def _cmd_permute(args) -> int:
    data = np.frombuffer(_read_bytes(args.input), dtype=np.uint8)
    _write_atomic(args.output, permute_characters(data, args.seed).tobytes())
    return 0


def _cmd_entropy(args) -> int:
    data = _read_bytes(args.input)
    symbols = map_bytes_to_symbols(data, first_appearance_alphabet(data))
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
    p.add_argument("--kmax-override", type=int, default=None,
                   help="cap the block-length sweep (output may be suboptimal)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decompress an MBLK frame")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--alphabet-from-file", metavar="PATH")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("sweep", help="transform prefixes of sources, emit CSV/SVG")
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
    p.add_argument("--kmax-override", type=int, default=None)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except CodecError as exc:
        print(f"corrupt input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
