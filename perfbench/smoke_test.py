#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, at a
short simulated horizon, through perfbench/run.py exactly as a full run.

    python3 perfbench/smoke_test.py

Run it from the root of the repository. It asserts that every run exits 0,
passes its output checks (including the traced-vs-untraced digest check),
prints the four result keys as its last line, and emits exactly the metrics
BENCHMARK.json names, each with the unit BENCHMARK.json gives it.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                     "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=REPO_DIR, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
                failures.append(f"{label}: correct={result['correct']} attempted="
                                f"{result['attempted']} failed={result['failed']}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected[trace]:
                missing = sorted(set(expected[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(expected[trace]))
                units = sorted(n for n in emitted if n in expected[trace] and
                               emitted[n] != expected[trace][n])
                failures.append(f"{label}: missing {missing} extra {extra} unit mismatch {units}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)) or not math.isfinite(
                        metric["value"]):
                    failures.append(f"{label}: {name} = {metric['value']!r}")
            print(f"{label}: ok ({result['attempted']} requests)", flush=True)
    for failure in failures:
        print("FAIL " + failure)
    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
