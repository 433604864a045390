#!/usr/bin/env python3
"""Run the served-path benchmark over several seeds and keep every record.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads langid neardup churn]
                               [--seeds 1 2 3 ...] [--trace 0|1]

Runs the command in BENCHMARK.json from the repository root, once per
workload and seed, and appends one JSON line per run to --out: the run's
report (host stamp, op and sample counts, tails, exact counts) with its
result line under "result" and the run's wall time under "wall_s".
Summarise or compare the files with compare.py.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    failures = 0
    with open(args.out, "a") as out:
        for workload in args.workloads:
            for seed in args.seeds:
                command = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                ]
                started = time.monotonic()
                run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
                wall = time.monotonic() - started
                lines = run.stdout.strip().splitlines()
                if run.returncode != 0 or len(lines) < 2:
                    failures += 1
                    print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}", file=sys.stderr)
                    continue
                record = json.loads(lines[-2])["report"]
                record["result"] = json.loads(lines[-1])
                record["wall_s"] = wall
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: {wall:.1f} s, correct={record['result']['correct']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
