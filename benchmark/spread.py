#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload of BENCHMARK.json `--runs` times (default 10), each time
with another seed, and prints for each metric the median and the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as
a share of the median, next to the metric's bound. A spread above a third of
the bound is marked `!`, above the bound `FAIL`.

    python3 benchmark/spread.py [--runs N] [--first-seed S] [--workload W]...
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for workload in bench["workloads"]:
        name = workload["name"]
        if args.workload and name not in args.workload:
            continue
        runs = []
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(args.first_seed + i),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {args.first_seed + i}: correct={result['correct']} failed={result['failed']}")
            runs.append(result["metrics"])
            print(".", end="", flush=True, file=sys.stderr)
        print(file=sys.stderr)
        print(f"== {name} ({args.runs} runs of {seconds} s)")
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            mark = ""
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
                mark = "FAIL" if spread > metric["bound"] else "!" if spread > metric["bound"] / 3 else ""
            print(f"{metric['name']:<22} median {med:>14.4f} {metric['unit']:<6} "
                  f"spread {spread:7.4f}  bound {metric['bound']:.3f} {mark}   "
                  f"[{min(values):.4f} .. {max(values):.4f}]")
    print(f"worst spread / bound = {worst:.2f} (the driver accepts < 1, aim for < 0.33)")


if __name__ == "__main__":
    main()
