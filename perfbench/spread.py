#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's median and
spread (inter-quartile range over median, quartiles as Python's
statistics.quantiles(values, n=4) gives them) — the figure the benchmark's
bounds are checked against.

    python3 perfbench/spread.py --workload batch-1d --seeds 1 2 3 4 5 --seconds 10

Run from the repository root; the command comes from BENCHMARK.json, run
untraced. `--self-test` checks the spread helper.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    """IQR over median; None when it is undefined."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return None if q2 == 0 else (q3 - q1) / abs(q2)


def self_test():
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (8.25 - 2.75) / 5.5
    assert spread([5.0] * 10) == 0.0
    assert spread([0.0, 0.0]) is None
    assert spread([1.0]) is None
    print("spread.py self-test passed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if run.returncode != 0 or not result.get("correct"):
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-3000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    print(f"{'metric':<26} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        s = spread(vals)
        b = bounds[name]
        flag = "" if s is None or s <= b / 3 else "  <-- above a third of its bound"
        print(f"{name:<26} {statistics.median(vals):>14.6g} "
              f"{'n/a' if s is None else f'{s:.4f}':>8} {b:>6}{flag}")


if __name__ == "__main__":
    main()
