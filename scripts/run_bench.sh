#!/usr/bin/env bash
# run_bench.sh — build and run the SAT-core bench driver (bench_sat) and
# append its result to the machine-readable perf trajectory at the repo
# root:
#
#   BENCH_sat.json  one entry per solver workload + totals: propagations/s,
#                   conflicts/s, binary-propagation share, peak clause-store
#                   bytes, GC activity, learned-clause tiers, inprocessing
#                   counters, wall-clock.  Selected workloads appear twice —
#                   plain and `*_noinpr` (solver inprocessing off) — as the
#                   in-tree ablation for the simplification pipeline, and
#                   `bmc_unroll_proof` is bmc_unroll with proof logging on.
#
# The file is a *trajectory*: {"trajectory": [entry, entry, ...]}, one
# entry appended per run, stamped with the git commit, date and host that
# produced it — so it diffs as a history, not a single point.  A legacy
# single-object file is migrated into a one-entry trajectory on the next
# run.  The ctest label `perf-smoke` runs a seconds-scale slice of the same
# driver as a sanity check (ctest -L perf-smoke).
#
# Engine-level measurements live elsewhere: `bench_paper <preset>` prints
# the paper's tables and ablations with every cell checked (preset pdr
# replaced bench_pdr and its BENCH_pdr.json; preset engines replaced
# bench_portfolio and examples/engine_shootout), and paperbench/ is the
# repository benchmark (python3 paperbench/run.py).
#
# Usage: scripts/run_bench.sh [build_dir] [sat_scale]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
scale="${2:-1}"

cmake -B "$build" -S "$root" > /dev/null
cmake --build "$build" -j "$(nproc)" --target bench_sat > /dev/null

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
date_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
host="$(hostname 2>/dev/null || echo unknown)"

# Append a freshly produced bench entry ($2, a single JSON object) to the
# trajectory file ($1), stamping it with commit/date/host.  Overwriting
# would discard history; a legacy single-object file becomes entry 0.
append_entry() {
  local traj="$1" fresh="$2"
  if command -v python3 > /dev/null 2>&1; then
    COMMIT="$commit" DATE="$date_utc" HOST="$host" \
      python3 - "$traj" "$fresh" << 'EOF'
import json, os, sys

traj_path, fresh_path = sys.argv[1], sys.argv[2]
with open(fresh_path) as f:
    entry = json.load(f)
entry["commit"] = os.environ["COMMIT"]
entry["date"] = os.environ["DATE"]
entry["host"] = os.environ["HOST"]

history = []
if os.path.exists(traj_path):
    try:
        with open(traj_path) as f:
            old = json.load(f)
        if isinstance(old, dict) and isinstance(old.get("trajectory"), list):
            history = old["trajectory"]
        elif isinstance(old, dict):
            old.setdefault("commit", "pre-trajectory")
            history = [old]  # migrate a legacy single-point file
    except (ValueError, OSError):
        history = []  # unreadable: restart the trajectory, keep the run

history.append(entry)
with open(traj_path, "w") as f:
    json.dump({"trajectory": history}, f, indent=1)
    f.write("\n")
EOF
  else
    # No python3: keep the single-point behaviour rather than corrupt the
    # trajectory with shell-quoted JSON surgery.
    echo "run_bench.sh: python3 not found; writing $traj as a single point" >&2
    cp "$fresh" "$traj"
  fi
  rm -f "$fresh"
}

"$build/bench_sat" "$scale" "$root/BENCH_sat.fresh.json"
append_entry "$root/BENCH_sat.json" "$root/BENCH_sat.fresh.json"
echo
echo "trajectory: $root/BENCH_sat.json (commit $commit)"
