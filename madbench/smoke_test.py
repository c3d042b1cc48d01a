#!/usr/bin/env python3
"""Smoke test of madbench: every workload at toy size, in seconds.

    python3 madbench/smoke_test.py [--binary PATH] [--spec BENCHMARK.json]

Without --binary the madbench binary is built through run.py. For each
workload it runs the untraced and traced modes on seed 1 and the untraced
mode on a held-out seed 2, and asserts that:
  * the run exits 0 with correct=true, failed=0 and attempted >= 1;
  * the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its declared unit and a finite value;
  * the metadata line carries build type, nproc, compiler, seed, fsync
    policy, per-percentile sample counts, input hashes and failed_share;
  * one seed gives byte-identical inputs (equal hashes in both modes) and
    another seed gives different ones.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
META_KEYS = ["build_type", "optimised_build", "nproc", "compiler", "git_sha",
             "seed", "fsync_policy", "nominal_samples", "input_fnv1a64",
             "failed_share"]


def run(binary, workload, seed, trace):
    if binary:
        cmd = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "2", "--trace", str(trace), "--smoke",
               "--run-dir", str(HERE.parent / ".bench_build" / "smoke" /
                                f"{workload}-{seed}-{trace}")]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
               "--smoke"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    assert p.returncode == 0, f"{cmd}: exit {p.returncode}\n{p.stderr[-2000:]}"
    assert len(lines) >= 2 and lines[-2].startswith("madbench-meta "), lines
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


def check_result(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    assert set(got) == set(want), (
        f"{label}: missing {sorted(set(want) - set(got))}, "
        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        assert m["unit"] == want[name], f"{label}: {name} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)), f"{label}: {name}"
        assert math.isfinite(m["value"]), f"{label}: {name} = {m['value']}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", default="")
    ap.add_argument("--spec", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text())

    for w in spec["workloads"]:
        name = w["name"]
        meta0, res0 = run(args.binary, name, 1, 0)
        check_result(res0, spec["end_to_end"], f"{name} trace=0")
        meta1, res1 = run(args.binary, name, 1, 1)
        check_result(res1, spec["per_layer"], f"{name} trace=1")
        meta2, res2 = run(args.binary, name, 2, 0)
        check_result(res2, spec["end_to_end"], f"{name} held-out seed")
        for key in META_KEYS:
            assert key in meta0, f"{name}: metadata lacks {key}"
        assert meta0["input_fnv1a64"] == meta1["input_fnv1a64"], name
        assert meta0["input_fnv1a64"]["edb"] != meta2["input_fnv1a64"]["edb"]
        assert "ratio_bases" in meta1 and "trace_file" in meta1, name
        print(f"ok {name}", flush=True)
    print("madbench smoke test passed")


if __name__ == "__main__":
    main()
