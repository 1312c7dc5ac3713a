#!/usr/bin/env python3
"""Self-test of the benchmark, in smoke mode (tiny data, one-second phases).

    python3 perfbench/selftest.py

For every workload it checks that
  * a plain run and a traced run exit 0 with "correct": true and print
    exactly the metrics BENCHMARK.json names, each with its unit;
  * a run with a corrupted expected result fingerprint, and (on the
    workloads that write) one with a corrupted expected write checksum,
    exit nonzero with "correct": false.
Exits nonzero if any of these does not hold. Takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("point_select", "analytic_join", "embedded_mixed", "wire_mixed")
WRITING = ("embedded_mixed", "wire_mixed")


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        for trace in (0, 1):
            code, result = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None or result["correct"] is not True:
                failures.append("%s: exit %d, result %s" % (label, code, result))
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                failures.append("%s: metrics/units %s, expected %s"
                                % (label, got, expected[trace]))
        for corrupt in ("fingerprint", "checksum"):
            if corrupt == "checksum" and workload not in WRITING:
                continue
            code, result = run(workload, 0, corrupt)
            if code == 0 or (result is not None and result["correct"] is not False):
                failures.append("%s --corrupt %s: exit %d, result %s — the check "
                                "did not catch it" % (workload, corrupt, code, result))
        print("%-14s %s" % (workload, "ok" if len(failures) == before else "FAILED"),
              flush=True)
    for f in failures:
        print("FAIL:", f)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
