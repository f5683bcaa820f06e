#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each time with another
seed, and prints how far each end-to-end metric spreads: the distance
between the first and third quartile of its values as a share of their
median (statistics.quantiles(values, n=4)), for the scaled figures the
benchmark reports and for the raw figures it prints beside them.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workload crawl ...]

With --sets 2 it also prints, per metric, how far the second set's
median lies from the first's, as a share of the first.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    raw = next(json.loads(line[len("# raw "):]) for line in out if line.startswith("# raw "))
    scaled = {name: m["value"] for name, m in result["metrics"].items()}
    return scaled, raw


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | bound | set | median | spread (scaled) | spread (raw) |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        medians = {}
        for s in range(args.sets):
            runs = [
                run_once(bench["command"], w, args.first_seed + s * args.runs + i, bench["run_seconds"])
                for i in range(args.runs)
            ]
            for name, bound in bounds.items():
                scaled = [r[0][name] for r in runs]
                raw = [r[1].get(name) for r in runs]
                raw_spread = f"{spread(raw):.4f}" if None not in raw else "—"
                medians.setdefault(name, []).append(statistics.median(scaled))
                print(
                    f"| {w} | {name} | {bound} | {s + 1} | {statistics.median(scaled):.6g} "
                    f"| {spread(scaled):.4f} | {raw_spread} |",
                    flush=True,
                )
        if args.sets > 1:
            for name, m in medians.items():
                print(f"| {w} | {name} | {bounds[name]} | 2 vs 1 | {(m[1] - m[0]) / m[0]:+.4f} | | |")


if __name__ == "__main__":
    main()
