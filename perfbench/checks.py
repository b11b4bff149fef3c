"""Correctness checks on the benchmark's outputs.

Each check recomputes what it compares against: code lengths come from
``block_cost`` over ``RankedBlockTable.from_parse`` (a Counter over Python
tuples, separate from the numpy search), small inputs go to the pruning-free
reference or the brute-force oracle, and the MI splits are held to the
rule-count bound.  None compares with a stored copy of earlier output.
"""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

import numpy as np

from minblock import (
    BitReader,
    RankedBlockTable,
    SymbolCode,
    block_cost,
    compress,
    decode_symbol,
    decompress,
    gen_bernoulli,
    unpack_frame,
)
from minblock.oracle import brute_force_min_block

ROOT = Path(__file__).resolve().parent.parent

# strings up to this length are compared with the pruning-free reference
REFERENCE_MAX_N = 64
# binary strings up to this length go to the brute-force oracle instead
ORACLE_MAX_N = 10
# the seeded sample of short strings held to those minima: this many with
# n <= REFERENCE_MAX_N (half with m = 2, half with m = 27), and this many
# binary ones with n <= ORACLE_MAX_N
SAMPLE_REFERENCE = 40
SAMPLE_ORACLE = 12


class CheckError(Exception):
    """An output of the program failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@functools.cache
def repo_module(relpath: str):
    """A helper module of the repository's test suite, imported by its path."""
    name = "perfbench_" + Path(relpath).stem
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload_parse(m: int, bits) -> tuple[int, int]:
    """Block length k and head run l of an emitted grammar, (0, 0) if terminal.

    Reads codewords with the symbol decoder alone: k is the length of the
    first rule, l the terminals that open the first rule holding a rule
    reference (the primary rule).  A grammar whose rules all hold terminals
    only is the terminal grammar when it has one rule.
    """
    code = SymbolCode(m)
    reader = BitReader(bits)
    rules: list[int] = []  # lengths of the finished rules
    current = 0
    while True:
        s = decode_symbol(code, reader)
        if s == -1:
            require(len(rules) == 1, "payload holds no rule reference but "
                                     f"{len(rules)} rules")
            return 0, 0
        if s == 0:
            rules.append(current)
            current = 0
        elif s > m:
            require(bool(rules), "the first rule holds a rule reference")
            return rules[0], current
        else:
            current += 1


def parse_cost(u: list[int], m: int, k: int, l: int) -> tuple[int, int]:
    """Emission size in bits of the block grammar for the parse of ``u`` at
    (k, l), and its number of distinct blocks; k = 0 is the terminal grammar.
    """
    code = SymbolCode(m)
    n = len(u)
    if k == 0:
        return (n + 2) * code.fixed_len, 0
    require(0 <= l < k and l + k <= n, f"impossible parse k={k} l={l} for n={n}")
    p = (n - l) // k
    table = RankedBlockTable.from_parse(u, k, l)
    return block_cost(code, table, k, l, n - l - p * k), table.num_blocks


def check_codec(u, m: int, frame: bytes, out, m_out: int) -> int:
    """Round trip, frame header and code length of one compressed input.

    Returns the payload size in bits.
    """
    require(m_out == m, f"decompress gave m={m_out}, expected {m}")
    require(np.array_equal(np.asarray(out, dtype=np.int64), np.asarray(u, dtype=np.int64)),
            "round trip changed the input")
    frame_m, bits = unpack_frame(frame)
    require(frame_m == m, f"frame holds m={frame_m}, expected {m}")
    code_bits = len(bits)
    k, l = payload_parse(m, bits)
    values = np.asarray(u).tolist()
    want, _ = parse_cost(values, m, k, l)
    require(code_bits == want,
            f"payload has {code_bits} bits, block_cost at k={k} l={l} gives {want}")
    terminal = (len(values) + 2) * SymbolCode(m).fixed_len
    require(code_bits <= terminal,
            f"payload has {code_bits} bits, terminal grammar costs {terminal}")
    return code_bits


def check_minimal(u, m: int, code_bits: int) -> str | None:
    """Compare a short input's code length with an exhaustive minimum.

    Returns the name of the method used, or None when ``u`` is too long.
    """
    values = np.asarray(u).tolist()
    code = SymbolCode(m)
    if m == 2 and len(values) <= ORACLE_MAX_N:
        want, method = brute_force_min_block(code, values), "oracle"
    elif len(values) <= REFERENCE_MAX_N:
        want = repo_module("tests/reference.py").reference_min_bits(code, values)
        method = "reference"
    else:
        return None
    require(code_bits == want, f"code_bits {code_bits}, {method} minimum {want}")
    return method


def check_short_sample(seed: int) -> dict[str, int]:
    """Round trips of a seeded sample of short strings, each held to its
    exhaustive minimum.  Returns how many strings each method checked.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    sample = [(m, n) for m in (2, 27)
              for n in rng.integers(1, REFERENCE_MAX_N + 1, SAMPLE_REFERENCE // 2).tolist()]
    sample += [(2, n) for n in rng.integers(1, ORACLE_MAX_N + 1, SAMPLE_ORACLE).tolist()]
    checked: dict[str, int] = {}
    for m, n in sample:
        u = gen_bernoulli([1.0 / m] * m, n, int(rng.integers(0, 1 << 63)))
        frame = compress(u, m)
        out, m_out = decompress(frame)
        method = check_minimal(u, m, check_codec(u, m, frame, out, m_out))
        checked[method] = checked.get(method, 0) + 1
    return checked


def check_sweep_row(row: dict, stream, m: int) -> int:
    """Criterion 8's row check plus the block_cost check; returns code_bits."""
    n = int(row["n"])
    k = int(row["block_len"])
    l = int(row["shift"])
    rules = int(row["rules"])
    code_bits = int(row["code_bits"])
    where = f"{row['source']} n={n}"
    prefix = np.asarray(stream[:n]).tolist()
    require(len(prefix) == n, f"{where}: source is shorter than n")
    want, distinct = parse_cost(prefix, m, k, l)
    require(rules == distinct + 1,
            f"{where}: rules={rules}, distinct blocks + 1 = {distinct + 1}")
    if k:
        require(rules <= min((n - l) // k, m**k) + 1, f"{where}: rules above the block bound")
    require(code_bits == want, f"{where}: code_bits={code_bits}, block_cost gives {want}")
    require(code_bits <= (n + 2) * SymbolCode(m).fixed_len,
            f"{where}: code_bits above the terminal grammar")
    return code_bits


def check_mi_split(j: int, bound: int, cut: int) -> None:
    require(j <= bound, f"split at {cut}: pointwise MI {j} above the bound {bound}")
