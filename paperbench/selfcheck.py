#!/usr/bin/env python3
"""Self-check of the benchmark: every metric is emitted and evidence is checked.

Usage (from the repository root):
    python3 paperbench/selfcheck.py [--seed N] [workload ...]

For each workload (default: all in BENCHMARK.json) it makes one short run
untraced and one traced on one seed, and checks that
  * the last output line has exactly correct/attempted/failed/metrics, with
    correct true and no failed job;
  * the untraced run emits exactly the end-to-end metrics and the traced run
    exactly the per-layer metrics of BENCHMARK.json, each with its unit;
  * every PASS job's certificate and every FAIL job's trace was checked
    (the per-job rows say which check ran), and the traced replay agreed
    with ITPSEQ on every job both decided.
It also checks that seed 0 reproduces bench::make_suite(), and that the
benchmark exits non-zero in a directory holding only BENCHMARK.json and the
benchmark's own files (it cannot build the library there).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
problems = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable] + args, cwd=cwd, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)


def check_run(bench, workload, seed, trace):
    tag = f"{workload} trace={trace}"
    proc = run([RUN, "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace)])
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and bool(lines), f"{tag}: exits 0 with output")
    if not lines:
        return
    res = json.loads(lines[-1])
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
          f"{tag}: summary keys")
    check(res.get("correct") is True and res.get("failed") == 0
          and res.get("attempted", 0) >= 1, f"{tag}: correct, no failed job")
    want = bench["per_layer" if trace else "end_to_end"]
    got = res.get("metrics", {})
    check(sorted(got) == sorted(m["name"] for m in want),
          f"{tag}: emits exactly the {len(want)} metrics of BENCHMARK.json")
    bad_units = [m["name"] for m in want
                 if got.get(m["name"], {}).get("unit") != m["unit"]
                 or not isinstance(got.get(m["name"], {}).get("value"), (int, float))]
    check(not bad_units, f"{tag}: every metric has a value and its unit {bad_units}")
    if trace == 0:
        zero = [m["name"] for m in want if got.get(m["name"], {}).get("value") == 0]
        check(not zero, f"{tag}: no end-to-end metric is 0 {zero}")
        return
    rows_path = os.path.join(ROOT, ".bench_out",
                             f"{workload}-seed{seed}-trace{trace}.rows.jsonl")
    with open(rows_path) as f:
        rows = [json.loads(line) for line in f]
    want_evidence = {"PASS": "certificate", "FAIL": "trace"}
    unchecked = [(r["instance"], r["engine"]) for r in rows
                 if r["verdict"] in want_evidence
                 and r["evidence"] != want_evidence[r["verdict"]]]
    passes = sum(r["evidence"] == "certificate" for r in rows)
    fails = sum(r["evidence"] == "trace" for r in rows)
    check(not unchecked and passes > 0 and fails > 0,
          f"{tag}: {passes} certificates and {fails} traces checked, "
          f"unchecked {unchecked}")
    check(got["mc.certify_s"]["value"] > 0 and got["mc.sim_s"]["value"] > 0,
          f"{tag}: evidence checks timed")
    check(got["trace.disagreements"]["value"] == 0,
          f"{tag}: replay agrees with itpseq on "
          f"{got['trace.jobs_both_decided']['value']:.0f} jobs")
    check(got["trace.spans"]["value"] > 0, f"{tag}: spans recorded")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "paperbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run([os.path.join("paperbench", "run.py"), "--workload", "paper_seq",
                "--seed", "0", "--seconds", "1", "--trace", "0"],
               cwd=bare, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the library sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    proc = run([RUN, "--check-suite"])
    check(proc.returncode == 0, "seed 0 reproduces bench::make_suite()")
    for w in a.workloads or [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            check_run(bench, w, a.seed, trace)
    check_bare_directory()
    print("selfcheck: " + ("all checks passed" if not problems
                           else f"{len(problems)} check(s) failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
