#!/usr/bin/env python3
"""Steadiness check for the benchmark, as the driver makes it.

Runs the command of BENCHMARK.json `--runs` times per workload, each
time with another --seed, and prints for every end-to-end metric the
distance between the first and third quartile of its values as a share
of their median, next to the metric's bound. A spread above a third of
the bound is marked `!`, above the bound `!!` (the driver exempts
setup_s from the spread rule, not from the median rule).

Run from the repository root:  python3 benchmark/spread.py [--runs 10]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save", help="write every run's metrics to this JSON file")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    saved = {}
    worst = 0.0
    for w in names:
        values = {m: [] for m in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            walls.append(time.time() - t0)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit code {out.returncode}")
            line = json.loads(out.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{w} seed {seed}: correct={line['correct']} failed={line['failed']}")
            for m in bounds:
                values[m].append(line["metrics"][m]["value"])
        saved[w] = values
        print(f"{w}: {args.runs} runs, {statistics.median(walls):.1f} s per run (max {max(walls):.1f})")
        for m, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            mark = "!!" if spread > bounds[m] else "!" if spread > bounds[m] / 3 else ""
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            print(f"  {m:20} median {med:<14.6g} spread {spread:.4f}  bound {bounds[m]:.3f} {mark}")
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")
    if args.save:
        json.dump(saved, open(args.save, "w"), indent=1)


if __name__ == "__main__":
    main()
