#!/usr/bin/env python3
"""Build the paperbench driver from source and run one benchmark run.

Usage (from the repository root):
    python3 paperbench/run.py --workload paper_seq --seed 0 --seconds 30 --trace 0

Configures and builds paperbench/ (which compiles the library under src/)
into .bench_build/, or into $CARGO_TARGET_DIR when that is set, then runs
the driver with the given arguments.  Build output goes to standard error,
so the last line of standard output is the driver's JSON summary.  Exits
non-zero when the build or the run fails.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "paperbench")


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    out_dir = os.path.join(ROOT, ".bench_out")
    # Turn SIGTERM into SystemExit so that the finally clause below stops
    # the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([exe] + argv + ["--out", out_dir], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 4
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
