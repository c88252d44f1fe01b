#!/usr/bin/env python3
"""Run a workload on several seeds and report each end-to-end metric's spread.

Usage (from the repository root):
    python3 paperbench/spread.py paper_seq [--seeds 0-9] [--seconds N]

For every end-to-end metric in BENCHMARK.json: the ten (or however many)
values, their median, and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound and a third of it.  Runs one seed after the
other, with the run length from BENCHMARK.json unless --seconds is given.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"spread.py: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--seeds", type=seeds_arg, default=list(range(10)))
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in a.seeds:
        res = run_once(a.workload, seed, seconds)
        row = {k: res["metrics"][k]["value"] for k in values}
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} " +
              " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values[k].append(v)
    print(f"{'metric':<14} {'median':>12} {'iqr/median':>11} {'bound':>7} {'bound/3':>8}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"{m['name']:<14} {med:>12.6g} {spread:>11.4f} {m['bound']:>7} "
              f"{m['bound'] / 3:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
