"""The benchmark's own tests: its checks reject wrong outputs, and every
workload runs end to end at a few seconds' size."""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import minblock.transform
from minblock import (
    BitString,
    CodecError,
    compress,
    decompress,
    gen_bernoulli,
    minimal_block_transform,
    pack_frame,
    unpack_frame,
)
from minblock.bits import HEADER_LEN
from minblock.codes import SymbolCode
from perfbench import checks, compare, runner
from perfbench.checks import CheckError
from perfbench.workloads import SMOKE, TRACED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _string(m: int, n: int, seed: int) -> np.ndarray:
    return gen_bernoulli([1.0 / m] * m, n, seed)


def test_check_codec_accepts_a_true_round_trip():
    u = _string(27, 300, 1)
    frame = compress(u, 27)
    out, m_out = decompress(frame)
    assert checks.check_codec(u, 27, frame, out, m_out) == len(unpack_frame(frame)[1])


def test_flipped_payload_bit_is_rejected():
    u = _string(3, 60, 2)
    frame = compress(u, 3)
    bitlen = len(unpack_frame(frame)[1])
    silent = 0
    for i in range(bitlen):
        flipped = bytearray(frame)
        flipped[HEADER_LEN + i // 8] ^= 0x80 >> (i % 8)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out, m_out = decompress(bytes(flipped))
        except CodecError:
            continue  # refused loudly: a failed operation, not a wrong output
        silent += 1
        with pytest.raises(CheckError):
            checks.check_codec(u, 3, bytes(flipped), out, m_out)
    assert silent > 0


def test_code_bits_off_by_one_is_rejected():
    u = _string(2, 400, 3)
    m, bits = unpack_frame(compress(u, 2))
    longer = BitString.from_bytes(bits.to_bytes(), len(bits))
    longer.append_bits(0, 1)
    with pytest.raises(CheckError, match="block_cost"):
        checks.check_codec(u, 2, pack_frame(2, longer), u, 2)


def _row(stream, m: int, n: int) -> dict:
    result = minimal_block_transform(SymbolCode(m), stream[:n])
    return {"source": "s", "n": str(n), "block_len": str(result.block_len),
            "shift": str(result.shift), "rules": str(result.num_rules),
            "code_bits": str(result.code_bits)}


@pytest.mark.parametrize("field, delta", [("rules", 1), ("rules", -1), ("code_bits", 1)])
def test_wrong_sweep_row_is_rejected(field, delta):
    stream = _string(2, 4096, 4)
    row = _row(stream, 2, 4096)
    assert int(row["block_len"]) >= 1
    checks.check_sweep_row(row, stream, 2)
    row[field] = str(int(row[field]) + delta)
    with pytest.raises(CheckError):
        checks.check_sweep_row(row, stream, 2)


def test_mi_split_above_the_bound_is_rejected():
    checks.check_mi_split(10, 10, cut=5)
    with pytest.raises(CheckError):
        checks.check_mi_split(11, 10, cut=5)


def test_short_sample_is_held_to_the_exhaustive_minimum():
    checked = checks.check_short_sample(5)
    assert checked["oracle"] >= checks.SAMPLE_ORACLE
    assert sum(checked.values()) == checks.SAMPLE_REFERENCE + checks.SAMPLE_ORACLE
    with pytest.raises(CheckError, match="minimum"):
        checks.check_minimal(_string(27, 40, 6), 27, 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_workload(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "SETUP_SECONDS", 0.0)
    originals = [getattr(module, attr) for module, attr, _, _ in TRACED]
    result = runner.run_workload(workload, 7, 0, bool(trace), SMOKE, tmp_path)
    assert [getattr(module, attr) for module, attr, _, _ in TRACED] == originals
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (tmp_path / f"trace-{workload}-seed7.json").is_file()


def test_operation_that_raises_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "SETUP_SECONDS", 0.0)
    real = minblock.transform.decompress
    calls = []

    def decompress_once_broken(data, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise CodecError("broken on purpose")
        return real(data, **kwargs)

    monkeypatch.setattr(minblock.transform, "decompress", decompress_once_broken)
    result = runner.run_workload("roundtrip-text", 7, 0, False, SMOKE, tmp_path)
    assert result["failed"] == 1 and result["attempted"] >= 2
    assert result["correct"] is False
    record = {"workload": "roundtrip-text", "seed": 7, "trace": 0, "result": result}
    (tmp_path / "r.json").write_text(json.dumps(record))
    with pytest.raises(ValueError, match="not correct"):
        compare.load(tmp_path / "r.json")


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1) == "unchanged"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "improved"
    wide = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert compare.verdict(base, wide, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, [50.0, 52.0, 48.0, 51.0, 49.0], "lower", 0.01) == "improved"


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
