"""CLI: round trips, exit codes, sweep CSV/SVG, reports."""

import csv
import io
import os

import numpy as np
import pytest

from minblock import transform
from minblock.cli import (
    ExperimentRecord,
    main,
    parse_grid,
    parse_source,
    records_to_csv,
    run_sweep,
)


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


def test_decode_of_empty_citations_at_every_level(tmp_path):
    from minblock import DictionaryGrammar, NonBlockGrammarWarning, SymbolCode, encode_grammar
    from minblock.bits import pack_frame

    # byte "A" (symbol 66) after four levels of 1000 citations of an empty
    # rule; built level by level this would be 10**12 symbols
    rules = ((),) + tuple((257 + i,) * 1000 for i in range(4)) + ((261, 66),)
    g = DictionaryGrammar(256, rules)
    enc = tmp_path / "deep.mblk"
    enc.write_bytes(pack_frame(256, encode_grammar(SymbolCode(256), g)))
    dec = tmp_path / "deep.out"
    with pytest.warns(NonBlockGrammarWarning):
        assert run(["decode", enc, dec]) == 0
    assert dec.read_bytes() == b"A"


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


def test_parse_grid():
    assert parse_grid("2^3..2^5") == [8, 16, 32]
    assert parse_grid("10,20,40") == [10, 20, 40]
    from minblock.cli import UsageError

    with pytest.raises(UsageError):
        parse_grid("5..9")
    with pytest.raises(UsageError):
        parse_grid("30,20")


def test_parse_source_kinds(tmp_path):
    spec = parse_source("bernoulli:0.3", seed=4)
    assert spec.probs == (0.3, 0.7) and spec.label == "bernoulli:0.3"
    spec = parse_source("corpus:/some/path.txt", seed=0)
    assert spec.kind == "corpus" and spec.path == "/some/path.txt"
    table = tmp_path / "t.json"
    table.write_text('{"transitions": [[0.9, 0.1], [0.5, 0.5]]}')
    spec = parse_source(f"markov:{table}", seed=1)
    assert spec.transitions == ((0.9, 0.1), (0.5, 0.5))


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


def test_encode_kmax_override(tmp_path):
    src = tmp_path / "s.bin"
    src.write_bytes(os.urandom(512))
    out = tmp_path / "o.mblk"
    assert run(["encode", src, out, "--kmax-override", "2"]) == 0
    back = tmp_path / "b.bin"
    assert run(["decode", out, back]) == 0
    assert back.read_bytes() == src.read_bytes()
