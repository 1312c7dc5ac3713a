#!/usr/bin/env python3
"""Build perfbench against the library sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload point_select --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (which
compiles ../src) into .bench_build/perfbench; later runs rebuild
incrementally. The benchmark binary prints diagnostics and, as the last
line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero when the build
fails, a correctness check fails or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("point_select", "analytic_join", "embedded_mixed", "wire_mixed")
RUN_TIMEOUT_S = 170


def git_commit(root):
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def build(root, build_dir):
    """Configure (once) and build the perfbench binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = (build_dir / "CMakeCache.txt").exists() and (
        (build_dir / "Makefile").exists() or (build_dir / "build.ninja").exists())
    if not configured:
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return build_dir / "perfbench"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and phases (the benchmark's self-test)")
    parser.add_argument("--corrupt", choices=("fingerprint", "checksum"),
                        help="corrupt one expected value; the run must fail")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        sys.stderr.write("perfbench: library sources not found under %s/src\n" % root)
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    if binary is None:
        return 3

    traces = build_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(traces / ("%s-seed%d.jsonl" % (args.workload, args.seed))),
           "--git-commit", git_commit(root)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, cwd=str(root), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1]):
        sys.stderr.write("perfbench: the run printed no valid result line\n")
        return proc.returncode or 5
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
