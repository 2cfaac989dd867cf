#!/usr/bin/env python3
"""Runs each workload over several seeds and prints, per end-to-end metric,
the median, the quartiles and the interquartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 [--workloads a,b] [--seconds N]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for wl in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: incorrect or failed ops: {lines[-1]}", file=sys.stderr)
                return 1
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{wl} ({args.seeds} seeds, {seconds} s)")
        for k in sorted(values):
            vs = values[k]
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print(f"  {k:16s} median {q2:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.3f}  bound {bounds[k]:.2f}")
    print(f"worst spread/bound (excluding setup_s): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
