#!/usr/bin/env python3
"""Regenerate Table I's engine columns and Fig. 6's series from job rows.

Usage:
    python3 paperbench/report.py .bench_out/paper_seq-seed0-trace0.rows.jsonl [--pass N]

The rows file is what one benchmark run writes: one JSON object per
(engine, instance) job and pass.  Table I lists, per instance, each engine's
verdict, k_fp, j_fp and CPU seconds; UNKNOWN prints as "ovf(k)" with the
bound reached at the cap, as in the paper.  Fig. 6 lists each engine's
per-instance CPU times sorted independently, unsolved jobs clamped to the
cap, with the solved count per engine.
"""
import argparse
import json
import sys

ENGINES = ["itp", "itpseq", "sitpseq", "itpseq_cba", "pdr"]


def load(path, pass_no):
    rows = []
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["pass"] == pass_no:
                rows.append(r)
    return rows


def cell(r):
    if r["verdict"] == "UNKNOWN":
        return f"ovf({r['k_fp']})"
    mark = "" if r["outcome"] == "solved" else "!"
    return f"{r['verdict'][0]}{mark} {r['k_fp']}/{r['j_fp']} {r['cpu_s']:.2f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rows")
    ap.add_argument("--pass", dest="pass_no", type=int, default=0)
    a = ap.parse_args()
    rows = load(a.rows, a.pass_no)
    if not rows:
        print(f"report.py: no rows for pass {a.pass_no} in {a.rows}", file=sys.stderr)
        return 1
    engines = [e for e in ENGINES if any(r["engine"] == e for r in rows)]
    instances = list(dict.fromkeys(r["instance"] for r in rows))
    by = {(r["instance"], r["engine"]): r for r in rows}

    print("# Table I: verdict k_fp/j_fp cpu_s per engine ('!' = failed check)")
    print(f"{'instance':<20} {'#FF':>5} " + " ".join(f"{e:>20}" for e in engines))
    for name in instances:
        first = next(by[(name, e)] for e in engines if (name, e) in by)
        cells = [cell(by[(name, e)]) if (name, e) in by else "-" for e in engines]
        print(f"{name:<20} {first['latches']:>5} " + " ".join(f"{c:>20}" for c in cells))

    print()
    print("# Fig. 6: sorted per-instance CPU seconds (unsolved = cap)")
    series = {}
    for e in engines:
        times = sorted(r["cpu_s"] if r["outcome"] == "solved" else r["cap_s"]
                       for r in rows if r["engine"] == e)
        solved = sum(r["outcome"] == "solved" for r in rows if r["engine"] == e)
        series[e] = times
        print(f"# {e}: solved {solved} of {len(times)}")
    print(f"{'idx':>5} " + " ".join(f"{e:>12}" for e in engines))
    for i in range(max(len(s) for s in series.values())):
        vals = [f"{series[e][i]:12.4f}" if i < len(series[e]) else " " * 12
                for e in engines]
        print(f"{i:>5} " + " ".join(vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
