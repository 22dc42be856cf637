"""Summarize benchmark runs per workload: median, quartiles and run count.

    python3 perfbench/summary.py

Run from the root of a checkout.  Records are grouped by the sha256 of
src/spreadforge/*.py, so runs of different code are never mixed; only the
group of the current source is shown.  Each timed figure is the median over
runs of the runs' values, with q1/q3 from statistics.quantiles(n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import plan
from run import END_TO_END_UNITS, source_digest
from traced import PER_LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS, "failed_ops_ratio": "ratio",
         **{f"{kind}_s": "s" for kind in plan.KINDS}}


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    digest = source_digest(Path.cwd())
    figures: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted((BENCH_DIR / "_runs").glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("src_sha256") != digest:
            continue
        values = record["metrics"] if record["trace"] else record["values"]
        table = figures[f"{record['workload']} (trace {record['trace']})"]
        for name, value in values.items():
            table[name].append(value["value"] if isinstance(value, dict) else value)
        table["failed_ops_ratio"].append(record["failed"] / record["attempted"])

    if not figures:
        print("no run records for the current source; run perfbench/run.py first")
        return 1
    for group in sorted(figures):
        table = figures[group]
        print(f"\n{group}")
        print(f"  {'metric':<38} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'n':>3}")
        for name, values in table.items():
            med, q1, q3 = spread(values)
            rel = (q3 - q1) / med if med else 0.0
            print(f"  {name:<38} {UNITS[name]:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.3f} "
                  f"{len(values):>3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
