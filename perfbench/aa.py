#!/usr/bin/env python3
"""A/A steadiness check: runs the same build as two sets of repeated runs.

    python3 perfbench/aa.py [--runs 10] [--sets 2] [--workloads a,b] [--seconds S]

Each set runs every workload once per seed 1..runs with --trace 0. For every
workload and metric the tool prints each set's median and quartiles and the
spread (Q3 - Q1) / median. Every gated metric of BENCHMARK.json must keep its
spread within the metric's bound in every set, and every later set's median
must lie within the bound of the first set's median, in either direction. The
other named metrics the benchmark prints are listed for information. Exits 1
when a gated check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    """Runs one workload; returns (result JSON, printed metrics) or raises."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "metric" and parts[2] == "=":
            printed[parts[1]] = (float(parts[3]), parts[4])
    return json.loads(lines[-1]), printed


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    gated = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values = {}
            for seed in range(1, args.runs + 1):
                result, printed = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: correct = false")
                    ok = False
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                for name, (value, unit) in printed.items():
                    values.setdefault("printed:" + name, []).append(value)
            sets.append(values)
        print(f"== {workload} ({args.runs} runs per set, {args.seconds} s each)")
        for name in sets[0]:
            row = []
            for index, values in enumerate(sets):
                q1, q2, q3, spread = summary(values[name])
                row.append(f"set{index + 1} median {q2:.6g} [Q1 {q1:.6g}, Q3 {q3:.6g}] "
                           f"spread {spread:.3f}")
            verdict = ""
            if name in gated:
                metric = gated[name]
                bound = metric["bound"]
                spreads = [summary(values[name])[3] for values in sets]
                medians = [summary(values[name])[1] for values in sets]
                steady = all(s <= bound for s in spreads)
                shifts = [abs(m - medians[0]) / medians[0] for m in medians[1:]]
                agree = all(d <= bound for d in shifts)
                margin = all(s <= bound / 3 for s in spreads)
                verdict = (f"  bound {bound}: " + ("ok" if steady and agree else "FAILED")
                           + "".join(f", median shift {d:.3f}" for d in shifts)
                           + ("" if margin else " (spread above a third of the bound)"))
                ok = ok and steady and agree
            print(f"  {name}: " + "; ".join(row) + verdict)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
