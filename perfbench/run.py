"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; the program is imported from
``src``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--out`` also
writes that object, with the workload, seed and trace flag, to FILE, the
input of ``perfbench/compare.py``.  Exit code 0 when every check passed, 1
when a check failed or an operation raised, 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("roundtrip-text", "sweep", "short-strings", "mi-splits")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this much operation time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    for needed in ("src/minblock/__init__.py", "tests/conftest.py", "tests/reference.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} is missing; run from a source checkout", file=sys.stderr)
            return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench.runner import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "result": result}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record) + "\n")
    print(line, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
