#!/usr/bin/env python3
"""Steadiness mode: run one workload k times and summarise each metric.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--trace 0|1]
                                [--json FILE]

Runs perfbench/run.py once per seed 1..runs, one run at a time, each
for BENCHMARK.json's run_seconds, and prints for every metric its
median, first and third quartile (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json. --json writes the raw per-run values too, so two
commits can be compared run by run.
Exit status is 1 if any run failed its output checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write per-run values to this file")
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run.py exited %d" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d"
              % (seed, result["correct"], result["attempted"],
                 result["failed"]), flush=True)

    print("\n%-40s %14s %14s %14s %8s %7s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread <= bound / 3 else (
                "WIDE" if spread <= bound else "OVER")
        print("%-40s %14.6g %14.6g %14.6g %8.4f %7s %s" % (
            name + " [" + first["unit"] + "]", med, q1, q3, spread,
            "" if bound is None else "%.3f" % bound, verdict))
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
