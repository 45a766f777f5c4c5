"""Median and quartile spread of end-to-end metrics over repeated runs.

    python3 perfbench/spread.py perfbench/results/*-trace0.json

Groups the result files by workload and prints, for every metric, the median
over the runs and the distance between the first and third quartile as a
share of that median: the run-to-run noise a later change must beat.
"""

from __future__ import annotations

import json
import statistics
import sys

from stats import quartile_spread


def main(paths) -> int:
    by_workload: dict = {}
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        if report["trace"]:
            continue
        runs = by_workload.setdefault(report["workload"], {})
        for name, metric in report["metrics"].items():
            runs.setdefault((name, metric["unit"]), []).append(metric["value"])
    if not by_workload:
        print("spread: no untraced result files given", file=sys.stderr)
        return 2
    for workload, metrics in sorted(by_workload.items()):
        for (name, unit), values in metrics.items():
            if len(values) < 2:
                print(f"{workload} {name}: one run only, {values[0]:.6g} {unit}")
                continue
            print(f"{workload} {name}: median {statistics.median(values):.6g} {unit}, "
                  f"quartile spread {quartile_spread(values):.3f} over {len(values)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
