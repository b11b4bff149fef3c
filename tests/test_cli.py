"""CLI: round trips, exit codes, sweep CSV/SVG, reports."""

import csv
import io
import os
import stat
import sys
import time
import tracemalloc

import numpy as np
import pytest

from minblock import (
    CorruptionError,
    DictionaryGrammar,
    SymbolCode,
    cli,
    decompress,
    encode_grammar,
    minimal_block_transform,
    transform,
)
from minblock.bits import pack_frame
from minblock.cli import (
    ExperimentRecord,
    main,
    parse_grid,
    parse_source,
    records_to_csv,
    run_sweep,
)
from minblock.plot import Series, render_loglog_svg
from minblock.sources import gen_markov, realize


def run(args):
    return main([str(a) for a in args])


def test_encode_decode_round_trip(tmp_path):
    data = os.urandom(1024)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    enc = tmp_path / "out.mblk"
    dec = tmp_path / "back.bin"
    assert run(["encode", src, enc]) == 0
    assert enc.read_bytes()[:4] == b"MBLK"
    assert run(["decode", enc, dec]) == 0
    assert dec.read_bytes() == data


def test_encode_decode_empty_file(tmp_path):
    src = tmp_path / "empty"
    src.write_bytes(b"")
    enc = tmp_path / "e.mblk"
    dec = tmp_path / "e.out"
    assert run(["encode", src, enc]) == 0
    assert run(["decode", enc, dec]) == 0
    assert dec.read_bytes() == b""


def _decode_is_refused(tmp_path, capsys, g):
    """``decompress`` and ``minblock decode`` of a frame holding ``g`` both
    refuse it as corrupt, the CLI with exit 3, one line and no output."""
    frame = pack_frame(g.m, encode_grammar(SymbolCode(g.m), g))
    start = time.perf_counter()
    with pytest.raises(CorruptionError, match="not block shaped"):
        decompress(frame)
    enc = tmp_path / "hostile.mblk"
    enc.write_bytes(frame)
    dec = tmp_path / "hostile.out"
    capsys.readouterr()
    assert run(["decode", enc, dec]) == 3
    assert time.perf_counter() - start < 2.0
    assert not dec.exists()
    assert capsys.readouterr().err.splitlines() == [
        "corrupt input: grammar is not block shaped"
    ]


def test_decode_of_empty_citations_at_every_level(tmp_path, capsys):
    # byte "A" (symbol 66) after four levels of 1000 citations of an empty
    # rule; expanded level by level this would be 10**12 symbols
    rules = ((),) + tuple((257 + i,) * 1000 for i in range(4)) + ((261, 66),)
    _decode_is_refused(tmp_path, capsys, DictionaryGrammar(256, rules))


def _hostile_rules(kind, m=256, d=50_000):
    """Rules of a valid dictionary grammar that is not a block grammar."""
    if kind == "unary-chain":  # (1,), (m+1,), (m+2,), ...: expands to [1]
        return ((1,),) + tuple((s,) for s in range(m + 1, m + d))
    if kind == "binary-chain":  # (1,), (m+1, 1), (m+2, 1), ...: the left-deep chain
        return ((1,),) + tuple((s, 1) for s in range(m + 1, m + d))
    if kind == "wide-chain":  # the unary chain's top, cited d times
        return _hostile_rules("unary-chain", m, d) + ((m + d,) * d,)
    if kind == "doubling":  # (1, 2), (m+1, m+1), ...: 2**23 symbols from 23 rules
        return ((1, 2),) + tuple((s, s) for s in range(m + 1, m + 23))
    return ((1, 2), (m + 1, 1), (m + 2, m + 2))  # a nonterminal in a secondary rule


@pytest.mark.parametrize("kind", ["unary-chain", "binary-chain", "wide-chain", "doubling",
                                  "secondary-cites-a-rule"])
def test_decode_refuses_grammars_encode_never_writes(tmp_path, capsys, kind):
    _decode_is_refused(tmp_path, capsys, DictionaryGrammar(256, _hostile_rules(kind)))


def test_decode_memory_per_output_byte(tmp_path):
    # a block grammar of 2**16 references to 64-byte blocks: 4 MiB out
    rng = np.random.Generator(np.random.Philox(3))
    m, k, d = 256, 64, 256
    blocks = rng.integers(1, m + 1, (d, k))
    refs = rng.integers(m + 1, m + d + 1, 1 << 16)
    primary = np.concatenate([[7, 8], refs, [9]])
    g = DictionaryGrammar.from_arrays(
        m, np.concatenate([blocks.ravel(), primary]),
        np.append(np.arange(0, d * k + 1, k), d * k + primary.size),
    )
    enc = tmp_path / "big.mblk"
    enc.write_bytes(pack_frame(m, encode_grammar(SymbolCode(m), g)))
    dec = tmp_path / "big.out"
    tracemalloc.start()
    try:
        assert run(["decode", enc, dec]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.concatenate([[7, 8], blocks[refs - (m + 1)].ravel(), [9]]) - 1
    assert dec.read_bytes() == want.astype(np.uint8).tobytes()
    # the uint16 symbols and the bytes written from their array: 3 bytes
    assert peak / want.size < 3.5


@pytest.mark.parametrize("alphabet", [None, b"ab"])
def test_decode_refuses_the_alphabet_before_expanding(tmp_path, capsys, alphabet):
    # 2**17 references to 1024-symbol blocks: 2**27 symbols from a frame of
    # about 90 kB, at m = 3, which neither all bytes nor two bytes fit
    m, k, d = 3, 1024, 4
    rng = np.random.Generator(np.random.Philox(4))
    primary = rng.integers(m + 1, m + d + 1, 1 << 17)
    g = DictionaryGrammar.from_arrays(
        m, np.concatenate([rng.integers(1, m + 1, d * k), primary]),
        np.append(np.arange(0, d * k + 1, k), d * k + primary.size),
    )
    enc = tmp_path / "big.mblk"
    enc.write_bytes(pack_frame(m, encode_grammar(SymbolCode(m), g)))
    dec = tmp_path / "big.out"
    args = ["decode", enc, dec]
    if alphabet is None:
        message = ("error: payload uses a custom alphabet; pass --alphabet-from-file "
                   "with the file the encoder used")
    else:
        other = tmp_path / "other.txt"
        other.write_bytes(alphabet)
        args += ["--alphabet-from-file", other]
        message = "error: alphabet size 2 does not match the payload's 3"
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(args) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not dec.exists()
    assert capsys.readouterr().err.splitlines() == [message]
    assert peak < 2e6  # 137 MB when the payload was expanded first


def test_encode_with_alphabet_file_compresses_better(tmp_path):
    data = bytes((i % 2) + ord("a") for i in range(4096))
    src = tmp_path / "s.txt"
    src.write_bytes(data)
    plain = tmp_path / "plain.mblk"
    compact = tmp_path / "compact.mblk"
    assert run(["encode", src, plain]) == 0
    assert run(["encode", src, compact, "--alphabet-from-file", src]) == 0
    assert compact.stat().st_size < plain.stat().st_size
    back = tmp_path / "back.txt"
    assert run(["decode", compact, back, "--alphabet-from-file", src]) == 0
    assert back.read_bytes() == data
    # decoding a custom-alphabet payload without the alphabet is refused
    assert run(["decode", compact, tmp_path / "x"]) == 1


@pytest.mark.parametrize("alphabet", [b"cbadxyz", b"ab"])
def test_decode_refuses_an_alphabet_of_another_size(tmp_path, capsys, alphabet):
    src = tmp_path / "s.txt"
    src.write_bytes(b"abcabcabcabc")
    enc = tmp_path / "s.mblk"
    assert run(["encode", src, enc, "--alphabet-from-file", src]) == 0
    other = tmp_path / "other.txt"
    other.write_bytes(alphabet)
    back = tmp_path / "back.txt"
    capsys.readouterr()
    assert run(["decode", enc, back, "--alphabet-from-file", other]) == 1
    assert not back.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: alphabet size {len(alphabet)} does not match the payload's 3"
    ]


def test_decode_refuses_a_symbol_the_alphabet_lacks(tmp_path, capsys):
    # m = 2 is the smallest frame, so a one-byte alphabet has its size; the
    # encoder never writes symbol 2 for it, but a frame can hold it
    enc = tmp_path / "two.mblk"
    enc.write_bytes(transform.compress(np.array([1, 2, 1]), 2))
    one = tmp_path / "one.txt"
    one.write_bytes(b"aaaa")
    back = tmp_path / "back.txt"
    capsys.readouterr()
    assert run(["decode", enc, back, "--alphabet-from-file", one]) == 1
    assert not back.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: the payload uses symbol 2, which the alphabet file has no byte for"
    ]


def test_exit_codes(tmp_path):
    assert run(["encode", tmp_path / "missing", tmp_path / "o"]) == 2
    bad = tmp_path / "bad.mblk"
    bad.write_bytes(b"XXXXnope")
    assert run(["decode", bad, tmp_path / "o"]) == 3
    assert main(["no-such-command"]) == 1
    assert main(["sweep", "--source", "wat:1", "--csv", "x.csv"]) == 1


def test_no_partial_output_on_failure(tmp_path):
    bad = tmp_path / "bad.mblk"
    bad.write_bytes(b"MBLKXXXXXXXXXXXXXXXX")
    target = tmp_path / "out.bin"
    assert run(["decode", bad, target]) == 3
    assert not target.exists()


def test_outputs_get_the_mode_of_a_new_file(tmp_path):
    src = tmp_path / "src.bin"
    src.write_bytes(b"abracadabra" * 10)
    enc = tmp_path / "out.mblk"
    dec = tmp_path / "back.bin"
    old = os.umask(0o022)
    try:
        assert run(["encode", src, enc]) == 0
        assert run(["decode", enc, dec]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(enc.stat().st_mode) == 0o644
    assert stat.S_IMODE(dec.stat().st_mode) == 0o644


@pytest.mark.parametrize("argv", [
    ["--source", "bernoulli:0.5", "--svg", "{tmp}/no-such-dir/fig", "--n-grid", "64,128"],
    ["--source", "bernoulli:0.5", "--source", "bernoulli:0.5", "--svg", "{tmp}/g",
     "--n-grid", "1"],
])
def test_a_failed_sweep_leaves_no_csv(tmp_path, capsys, argv):
    csv_path = tmp_path / "s.csv"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(["sweep", "--csv", csv_path] + argv) != 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error: " in err[0]
    assert not list(tmp_path.iterdir())  # no CSV, SVG or temporary sibling


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(spec, n_max):
        raise MemoryError("Unable to allocate 256. TiB for an array")

    monkeypatch.setattr(cli, "realize", exhausted)
    assert run(["sweep", "--source", "bernoulli:0.5", "--csv", tmp_path / "s.csv",
                "--n-grid", "2^45..2^45"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: out of memory: Unable to allocate 256. TiB for an array"]
    assert not (tmp_path / "s.csv").exists()


def test_parse_grid():
    assert parse_grid("2^3..2^5") == [8, 16, 32]
    assert parse_grid("10,20,40") == [10, 20, 40]
    from minblock.cli import UsageError

    with pytest.raises(UsageError):
        parse_grid("5..9")
    with pytest.raises(UsageError):
        parse_grid("30,20")
    # a negative exponent and a repeated length are bad grids too
    with pytest.raises(UsageError, match="bad grid"):
        parse_grid("2^-1..2^3")
    with pytest.raises(UsageError, match="increasing"):
        parse_grid("4,4,8")
    # an exponent or a length that is not an integer
    with pytest.raises(UsageError, match=r"bad grid '2\^a\.\.2\^3'"):
        parse_grid("2^a..2^3")
    with pytest.raises(UsageError, match="bad grid '10,x'"):
        parse_grid("10,x")
    assert main(["sweep", "--source", "bernoulli:0.5", "--csv", "x.csv",
                 "--n-grid", "2^-1..2^3"]) == 1


def test_parse_source_kinds(tmp_path):
    spec = parse_source("bernoulli:0.3", seed=4)
    assert spec.probs == (0.3, 0.7) and spec.label == "bernoulli:0.3"
    spec = parse_source("corpus:/some/path.txt", seed=0)
    assert spec.kind == "corpus" and spec.path == "/some/path.txt"
    table = tmp_path / "t.json"
    table.write_text('{"transitions": [[0.9, 0.1], [0.5, 0.5]]}')
    spec = parse_source(f"markov:{table}", seed=1)
    assert spec.transitions == ((0.9, 0.1), (0.5, 0.5))


def test_a_bad_probability_list_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(cli.UsageError, match="bad probability list '0.5,x'"):
        parse_source("bernoulli:0.5,x", seed=0)
    assert run(["gen", "bernoulli:0.5,x", tmp_path / "g.bin", "--n", 10]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: bad probability list '0.5,x'"]
    assert not (tmp_path / "g.bin").exists()


def test_sweep_of_a_markov_source(tmp_path):
    # the stream is gen_markov's, and m is the size of the table
    table = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]
    path = tmp_path / "T.json"
    path.write_text(f'{{"transitions": {table}}}')
    csv_path = tmp_path / "r.csv"
    assert run(["sweep", "--source", f"markov:{path}", "--csv", csv_path,
                "--n-grid", "2^8..2^10", "--seed", 4]) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    u = gen_markov(table, 1 << 10, seed=4)
    want = []
    for n in (256, 512, 1024):
        r = minimal_block_transform(SymbolCode(3), u[:n])
        want.append((f"markov:{path}", n, r.shift, r.num_rules, r.block_len, r.code_bits))
    assert [(row["source"], int(row["n"]), int(row["shift"]), int(row["rules"]),
             int(row["block_len"]), int(row["code_bits"])) for row in rows] == want


def test_sweep_csv_and_svg(tmp_path):
    csv_path = tmp_path / "r.csv"
    svg_prefix = tmp_path / "fig"
    assert run(
        [
            "sweep",
            "--source", "bernoulli:0.5",
            "--csv", csv_path,
            "--svg", svg_prefix,
            "--n-grid", "2^8..2^12",
            "--seed", 5,
        ]
    ) == 0
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert [int(r["n"]) for r in rows] == [256, 512, 1024, 2048, 4096]
    for suffix in ("-rules.svg", "-block-length.svg"):
        body = (tmp_path / ("fig" + suffix)).read_text()
        assert body.startswith("<svg") and "slope" in body


def test_sweep_deterministic_modulo_wall_time(tmp_path):
    specs = [parse_source("bernoulli:0.5", seed=9)]
    a = run_sweep(specs, [256, 512, 1024])
    b = run_sweep(specs, [256, 512, 1024])

    def strip(records):
        return [
            (r.source, r.n, r.shift, r.rules, r.block_len, r.code_bits,
             round(r.bits_per_symbol, 9))
            for r in records
        ]

    assert strip(a) == strip(b)
    assert records_to_csv(a).splitlines()[0] == (
        "source,n,shift,rules,block_len,code_bits,bits_per_symbol,wall_seconds"
    )
    # every cell of one row, with the two float formats and a quoted label
    row = ExperimentRecord(source="corpus:a,b.txt", n=1024, shift=3, rules=17,
                           block_len=4, code_bits=2051, bits_per_symbol=2051 / 1024,
                           wall_seconds=0.01234)
    assert records_to_csv([row]).splitlines()[1] == (
        '"corpus:a,b.txt",1024,3,17,4,2051,2.002930,0.012'
    )


def test_sweep_skips_oversized_n(tmp_path, capsys):
    src = tmp_path / "tiny.txt"
    src.write_bytes(b"abcabcabc" * 20)
    csv_path = tmp_path / "r.csv"
    assert run(
        ["sweep", "--source", f"corpus:{src}", "--csv", csv_path,
         "--n-grid", "64,128,4096"]
    ) == 0
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert [int(r["n"]) for r in rows] == [64, 128]
    assert "skipping n=4096" in capsys.readouterr().err


def _rows(records):
    return [(r.source, r.n, r.shift, r.rules, r.block_len, r.code_bits, r.bits_per_symbol)
            for r in records]


def _serial_rows(specs, ns):
    """The sweep's rows from one transform after another, in grid order."""
    rows = []
    for spec in specs:
        stream, m = realize(spec, max(ns))
        code = SymbolCode(max(2, m))
        for n in ns:
            if n <= stream.size:
                r = minimal_block_transform(code, stream[:n])
                rows.append((spec.label, n, r.shift, r.num_rules, r.block_len, r.code_bits,
                             r.code_bits / n))
    return rows


def _record_calls(monkeypatch, transform_fn=None):
    """Patch the sweep's transform to record (n, u, start, end) of each call."""
    calls = []
    inner = transform_fn or cli.minimal_block_transform

    def recorded(code, u, **kwargs):
        start = time.perf_counter()
        try:
            return inner(code, u, **kwargs)
        finally:
            calls.append((len(u), u, start, time.perf_counter()))

    monkeypatch.setattr(cli, "minimal_block_transform", recorded)
    return calls


def _sleepy(seconds):
    """The transform, after a pause that makes concurrent calls overlap."""
    def transform_fn(code, u, **kwargs):
        time.sleep(seconds)
        return minimal_block_transform(code, u, **kwargs)

    return transform_fn


def test_concurrent_sweep_rows_match_a_serial_loop(tmp_path, monkeypatch):
    # more workers than CPUs and a short switch interval, so that a row lost
    # or written to the wrong place by the scheduler would show
    src = tmp_path / "small.txt"
    text = b"the cat sat on the mat; the rat sat on the cat. " * 30
    src.write_bytes(text)
    specs = [parse_source(f"corpus:{src}", seed=0), parse_source("bernoulli:0.5", seed=2),
             parse_source(f"permuted-corpus:{src}", seed=3)]
    ns = [100, 256, 700, 1000, 2000]  # 2000 is beyond the corpus file
    warnings = []
    monkeypatch.setattr(cli, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        records = run_sweep(specs, ns, warn=warnings.append)
    finally:
        sys.setswitchinterval(interval)
    assert _rows(records) == _serial_rows(specs, ns)
    assert warnings == [
        f"skipping n=2000 for {kind}:{src}: source has only {len(text)} symbols"
        for kind in ("corpus", "permuted-corpus")
    ]


def test_concurrent_transforms_stay_within_the_budget(monkeypatch):
    # the n of the transforms running at once sum to at most 3/2 of the
    # largest n; the pause makes transforms that may overlap do so
    monkeypatch.setattr(cli, "_cpu_count", lambda: 4)
    calls = _record_calls(monkeypatch, _sleepy(0.05))
    specs = [parse_source("bernoulli:0.5", seed=s) for s in (1, 2)]
    ns = [256, 512, 1024, 2048]
    records = run_sweep(specs, ns)
    assert [(r.source, r.n) for r in records] == [(s.label, n) for s in specs for n in ns]
    loads = [sum(m for m, _, s, e in calls if s <= start < e) for _, _, start, _ in calls]
    assert max(loads) <= 3 * max(ns) // 2
    assert max(loads) > max(ns)  # some transforms did run at once


def test_cpu_count_without_an_affinity_call(monkeypatch):
    # os.sched_getaffinity is not on every platform
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._cpu_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._cpu_count() == 3


def test_one_cpu_runs_the_largest_first_one_at_a_time(monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    calls = _record_calls(monkeypatch)
    specs = [parse_source("bernoulli:0.5", seed=s) for s in (1, 2)]
    ns = [256, 512, 1024]
    run_sweep(specs, ns)
    streams = [realize(spec, max(ns))[0] for spec in specs]
    started = sorted(calls, key=lambda call: call[2])
    for (_, _, _, end), (_, _, start, _) in zip(started, started[1:]):
        assert end <= start
    # largest n first, ties in row order
    order = [(n, next(i for i, x in enumerate(streams) if np.array_equal(x[:n], u)))
             for n, u, _, _ in started]
    assert order == [(n, i) for n in sorted(ns, reverse=True) for i in range(len(specs))]


@pytest.mark.parametrize("cpus, started", [(1, [1024]), (2, [1024, 512])])
def test_a_failed_transform_stops_the_sweep(monkeypatch, cpus, started):
    # the transform at n = 1024 raises; no transform starts after that, and
    # the error propagates once the one running beside it (n = 512 with two
    # CPUs; 256 does not fit the budget beside both) has finished
    def failing(code, u, **kwargs):
        if len(u) == 1024:
            time.sleep(0.02)
            raise RuntimeError("transform failed")
        return _sleepy(0.1)(code, u, **kwargs)

    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    calls = _record_calls(monkeypatch, failing)
    with pytest.raises(RuntimeError, match="transform failed"):
        run_sweep([parse_source("bernoulli:0.5", seed=1)], [256, 512, 1024])
    returned = time.perf_counter()
    assert [n for n, *_ in sorted(calls, key=lambda call: call[2])] == started
    raised = next(end for n, _, _, end in calls if n == 1024)
    assert all(start <= raised and end <= returned for _, _, start, end in calls)


def test_mi_report(tmp_path, capsys):
    u = tmp_path / "u.txt"
    v = tmp_path / "v.txt"
    u.write_bytes(b"abcabcabc" * 200)
    v.write_bytes(b"abcabcabc" * 200)
    assert run(["mi", u, v]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert set(fields) == {"J_bits", "rules", "block_len", "bound_bits", "slack_bits"}
    assert int(fields["slack_bits"]) == int(fields["bound_bits"]) - int(fields["J_bits"])
    assert int(fields["J_bits"]) <= int(fields["bound_bits"])


def test_mi_transforms_the_concatenation_once(tmp_path, capsys, monkeypatch):
    # one suffix index of u + v serves the code lengths of u, v and u + v
    calls = []

    def counted(arr, _real=transform._suffix_index):
        calls.append(arr.size)
        return _real(arr)

    monkeypatch.setattr(transform, "_suffix_index", counted)
    u = tmp_path / "u.txt"
    v = tmp_path / "v.txt"
    u.write_bytes(b"abracadabra" * 30)
    v.write_bytes(b"cadabra arbadac" * 20)
    assert run(["mi", u, v]) == 0
    assert calls == [330 + 300]
    assert capsys.readouterr().out.splitlines() == [
        "J_bits=-648", "rules=7", "block_len=33", "bound_bits=952", "slack_bits=1600",
    ]


def test_mi_of_a_file_with_itself(tmp_path, capsys, corpus_path):
    # the concatenation is a doubled string, the long-repeat case that the
    # aligned-repeat caps bound
    piece = tmp_path / "piece.txt"
    data = corpus_path.read_bytes()[:50_000]
    piece.write_bytes(data)
    start = time.perf_counter()
    assert run(["mi", piece, piece]) == 0
    assert time.perf_counter() - start < 10.0
    fields = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    alphabet = cli.first_appearance_alphabet(data)
    joint = minimal_block_transform(SymbolCode(len(alphabet)),
                                    cli.map_bytes_to_symbols(data + data, alphabet))
    assert (int(fields["rules"]), int(fields["block_len"])) == (joint.num_rules, joint.block_len)


def test_gen_permute_entropy(tmp_path, capsys):
    out = tmp_path / "g.bin"
    assert run(["gen", "bernoulli:0.5", out, "--n", 4096, "--seed", 3]) == 0
    data = out.read_bytes()
    assert len(data) == 4096 and set(data) <= {1, 2}
    again = tmp_path / "g2.bin"
    assert run(["gen", "bernoulli:0.5", again, "--n", 4096, "--seed", 3]) == 0
    assert again.read_bytes() == data

    shuffled = tmp_path / "p.bin"
    assert run(["permute", out, shuffled, "--seed", 1]) == 0
    assert sorted(shuffled.read_bytes()) == sorted(data)

    assert run(["entropy", out, "--k", 1]) == 0
    captured = capsys.readouterr().out
    assert "block_entropy_bits=" in captured
    h = float(captured.split("block_entropy_bits=")[1].splitlines()[0])
    assert 0.99 < h <= 1.0


@pytest.mark.parametrize("kind, message", [
    ("corpus:{tmp}/a.txt", "gen supports bernoulli:* and markov:* sources"),
    ("bernoulli:" + ",".join(["0.00390625"] * 256),
     "gen writes one byte per symbol; alphabet must be <= 255"),
])
def test_gen_refuses_what_one_byte_a_symbol_cannot_write(tmp_path, capsys, kind, message):
    (tmp_path / "a.txt").write_bytes(b"abcab")
    out = tmp_path / "g.bin"
    assert run(["gen", kind.format(tmp=tmp_path), out, "--n", 10]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("disjoint", [[], ["--disjoint"]])
def test_entropy_of_a_constant_file_is_positive_zero(tmp_path, capsys, disjoint):
    src = tmp_path / "a.txt"
    src.write_bytes(b"aaaaaaaa")
    assert run(["entropy", src, "--k", 2] + disjoint) == 0
    assert capsys.readouterr().out.splitlines() == [
        "block_entropy_bits=0.000000", "bits_per_symbol=0.000000"]


def test_entropy_of_a_missing_or_empty_file(tmp_path, capsys):
    assert run(["entropy", tmp_path / "missing", "--k", 1]) == 2
    assert capsys.readouterr().err.startswith("I/O error:")
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    assert run(["entropy", empty, "--k", 1]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("csv_name", ["fig-rules.svg", "./fig-rules.svg"])
def test_sweep_refuses_two_outputs_in_one_file(tmp_path, capsys, monkeypatch, csv_name):
    # the CSV named as one of the SVGs, in either spelling, would be lost to
    # it: a usage error before any transform, and nothing written
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_sweep", refuse)
    assert run(["sweep", "--source", "bernoulli:0.5", "--n-grid", "2^6..2^8",
                "--csv", csv_name, "--svg", "fig"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the outputs must be different files")
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_permute_empty_file(tmp_path):
    src = tmp_path / "empty"
    src.write_bytes(b"")
    out = tmp_path / "p.bin"
    assert run(["permute", src, out, "--seed", 1]) == 0
    assert out.read_bytes() == b""


def test_encode_has_no_kmax_override(tmp_path, capsys):
    # the search has no cap: a capped frame would not hold the minimal code
    src = tmp_path / "s.bin"
    src.write_bytes(os.urandom(512))
    out = tmp_path / "o.mblk"
    assert run(["encode", src, out, "--kmax-override", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unrecognized arguments: --kmax-override")
    assert not out.exists()


def test_sweep_has_no_kmax_override(tmp_path, capsys):
    # a capped row would be an upper bound in columns that report the minimum
    assert main(["sweep", "--source", "bernoulli:0.5", "--csv", str(tmp_path / "r.csv"),
                 "--n-grid", "64", "--kmax-override", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unrecognized arguments: --kmax-override")
    assert not (tmp_path / "r.csv").exists()


def test_encode_without_alphabet_file_maps_byte_b_to_symbol_b_plus_1(tmp_path):
    rng = np.random.Generator(np.random.Philox(8))
    data = bytes(range(256)) + rng.integers(0, 256, 3000, dtype=np.uint8).tobytes() * 2
    src = tmp_path / "all-bytes.bin"
    src.write_bytes(data)
    enc = tmp_path / "all-bytes.mblk"
    assert run(["encode", src, enc]) == 0
    want = transform.compress(np.frombuffer(data, np.uint8).astype(np.uint16) + 1, 256)
    assert enc.read_bytes() == want
    back = tmp_path / "back.bin"
    assert run(["decode", enc, back]) == 0
    assert back.read_bytes() == data


@pytest.mark.parametrize("table", ['{"rows": [[1.0]]}', '{"transitions": 3}', "[1, 2]",
                                   '{"transitions": [1, 2]}', '{"transitions": [["a"]]}',
                                   "{not json"])
def test_a_malformed_markov_table_is_a_usage_error(tmp_path, capsys, table):
    path = tmp_path / "T.json"
    path.write_text(table)
    for argv in (["gen", f"markov:{path}", tmp_path / "g.bin", "--n", 16],
                 ["sweep", "--source", f"markov:{path}", "--csv", tmp_path / "r.csv",
                  "--n-grid", "16"]):
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad markov table '{path}'")
    assert not (tmp_path / "g.bin").exists() and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("kind", ["bernoulli:nan", "bernoulli:0.5,nan", "markov"])
def test_a_non_finite_probability_is_a_usage_error(tmp_path, capsys, kind):
    if kind == "markov":
        path = tmp_path / "T.json"
        path.write_text('{"transitions": [[0.5, 0.5], [NaN, 1.0]]}')  # json reads NaN
        kind = f"markov:{path}"
    capsys.readouterr()
    for argv in (["gen", kind, tmp_path / "g.bin", "--n", 10],
                 ["sweep", "--source", kind, "--csv", tmp_path / "r.csv", "--n-grid", "16"]):
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: probabilities must be finite, nonnegative and sum to 1"
        ]
    assert not (tmp_path / "g.bin").exists() and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("source, message", [("wat:1", "unknown source kind 'wat'"),
                                             ("corpus:", "corpus source needs a file path"),
                                             ("permuted-corpus", "permuted-corpus source needs")])
def test_a_bad_source_is_one_error_line(tmp_path, capsys, source, message):
    with pytest.raises(ValueError, match=message):
        parse_source(source, seed=0)
    assert run(["sweep", "--source", source, "--csv", tmp_path / "r.csv"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


def test_a_plot_of_no_positive_value_draws_its_axes_and_legend():
    import xml.etree.ElementTree as ET

    svg = render_loglog_svg([Series("zeros", (64, 128), (0.0, 0.0), None)], "t", "n", "v")
    root = ET.fromstring(svg)
    assert not list(root.iter("{http://www.w3.org/2000/svg}circle"))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "zeros (slope n/a)" in texts
    assert texts.count("2^0") == texts.count("2^1") == 2  # unit axes in x and y


def test_sweep_svgs_escape_the_source_label(tmp_path):
    import xml.etree.ElementTree as ET

    src = tmp_path / "a&b<c.txt"
    src.write_bytes(b"the cat sat on the mat; " * 20)
    label = f"corpus:{src}"
    assert run(["sweep", "--source", label, "--csv", tmp_path / "r.csv",
                "--svg", tmp_path / "fig", "--n-grid", "64,128,256"]) == 0
    for suffix in ("-rules.svg", "-block-length.svg"):
        root = ET.parse(tmp_path / ("fig" + suffix)).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert any(t.startswith(f"{label} (slope ") for t in texts)
