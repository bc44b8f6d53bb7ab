#!/usr/bin/env python3
"""Summarizes normbench records across runs.

Usage: python3 normbench/summarize.py <out-dir>

Reads every record that `normbench --out <out-dir>` wrote and prints, per
workload and trace mode, the median and quartiles of each metric over the
runs, and the spread (interquartile range over median).
"""

import json
import statistics
import sys
from pathlib import Path


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    groups = {}
    for path in sorted(Path(sys.argv[1]).glob("*.json")):
        rec = json.loads(path.read_text())
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for (workload, trace), recs in sorted(groups.items()):
        info = recs[0]["info"]
        seeds = " ".join(str(r["seed"]) for r in recs)
        print(f"{workload} trace {trace}: {len(recs)} runs, seeds {seeds}")
        print(f"  nproc {info['nproc']}, {info['cpu']}, {info['rustc']}, commit {info['commit']}")
        bad = [r["seed"] for r in recs if not r["correct"]]
        if bad:
            print(f"  INCORRECT runs: seeds {bad}")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} unit")
        for name, first in recs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in recs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
