"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) of results written by
``perfbench/run.py --out``; traced results are ignored.  A result whose run
failed a check or had an operation raise is refused: its metrics cover only
what survived, so they are not comparable.  For each workload
found on both sides and each end-to-end metric of BENCHMARK.json the command
prints the median and quartiles of each side and a verdict against the
metric's bound:

* unresolved: the run-to-run spread (quartile distance over median) of
  either side is wider than the bound, and not every NEW run reads better
  than every BASE run (when it does, the verdict is improved);
* improved / worse: the NEW median is better / worse than the BASE median
  by more than the bound;
* unchanged: otherwise.

Exit code 1 when any metric is worse, 2 when a result is refused, 0
otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """Untraced metric values by (workload, metric) from result files."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: dict[tuple[str, str], list[float]] = {}
    for file in files:
        record = json.loads(file.read_text())
        if record["trace"]:
            continue
        result = record["result"]
        if not result["correct"] or result["failed"]:
            raise ValueError(f"{file}: the run was not correct "
                             f"({result['failed']} of {result['attempted']} operations failed)")
        for metric, entry in result["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(float(entry["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm))
    gain = sign * (nm - bm) / abs(bm)
    if spread > bound:
        all_better = min(sign * v for v in new) > max(sign * v for v in base)
        return "improved" if all_better else "unresolved"
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "worse"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in sorted({w for w, _ in base}):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            b, n = base[key], new[key]
            rows.append((workload, metric["name"], metric["unit"], quartiles(b), len(b),
                         quartiles(n), len(n),
                         verdict(b, n, metric["better"], metric["bound"])))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(load(Path(args[0])), load(Path(args[1])), spec)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':15} {'metric':30} {'base median [q1, q3] (runs)':38} "
          f"{'new median [q1, q3] (runs)':38} {'change':>8}  verdict")
    for workload, metric, unit, bq, bn, nq, nn, word in rows:
        change = (nq[1] - bq[1]) / abs(bq[1]) * 100
        base_txt = f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] ({bn})"
        new_txt = f"{nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}] ({nn})"
        print(f"{workload:15} {metric + ' ' + unit:30} {base_txt:38} {new_txt:38} "
              f"{change:+7.1f}%  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
