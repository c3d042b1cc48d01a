#!/usr/bin/env python3
"""Builds madbench from source and runs one workload.

    python3 madbench/run.py --workload batch_sp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
engine libraries plus the madbench binary in .bench_build/madbench (Release); later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is always the binary's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "madbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    b = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "madbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        fail("build failed")
    return BUILD / "madbench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    binary = build()
    run_dir = (ROOT / ".bench_build" / "runs" /
               f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--run-dir", str(run_dir), "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # The madd data dirs are large and of no use after the run; the
        # trace file stays.
        shutil.rmtree(run_dir / "serve", ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
