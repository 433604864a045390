#!/usr/bin/env python3
"""Summarise or compare result sets of the served-path benchmark.

A result set is a JSON-lines file written by sweep.py: one record per run,
holding the run's report (host stamp, op and sample counts, tails) and its
result line.

    python3 perfbench/compare.py A.jsonl          # spread of one set
    python3 perfbench/compare.py A.jsonl B.jsonl  # A (parent) against B

For each workload and end-to-end metric this prints each side's median and
quartiles (as Python's statistics.quantiles gives them) and the spread, the
distance between the quartiles as a share of the median. One set: a row is
flagged when its spread exceeds a third of the metric's bound in
BENCHMARK.json. Two sets: a row is flagged when B's median is worse than
A's by more than the bound. Exits 1 when any row is flagged.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def column(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip())
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets = [load(p) for p in argv[1:]]
    flagged = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = [s.get((workload, 0), []) for s in sets]
        if not all(sides):
            continue
        seeds = [sorted(r["seed"] for r in side) for side in sides]
        failed = [sum(r["result"]["failed"] for r in side) for side in sides]
        print(f"\n{workload}: runs {[len(s) for s in sides]} seeds {seeds} failed ops {failed}")
        host = sides[-1][-1]["host"]
        print(f"  host nproc={host['nproc']} backend={host['backend']} rustc={host['rustc']!r} rev={host['git_rev']}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = [stats(column(side, name)) for side in sides]
            cells = "  ".join(f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {sp:.3f}" for med, q1, q3, sp in rows)
            flag = ""
            if len(rows) == 1 and rows[0][3] > bound / 3:
                flag = f"  <-- spread above bound/3 ({bound / 3:.3f})"
            if len(rows) == 2:
                a, b = rows[0][0], rows[1][0]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                cells += f"  change {worse:+.3f} (worse is +)"
                if worse > bound:
                    flag = f"  <-- worse by more than the bound {bound}"
            flagged += bool(flag)
            print(f"  {name:<18} {cells}{flag}")
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
