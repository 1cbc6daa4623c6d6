#!/usr/bin/env python3
"""Runs one workload of the Aegaeon simulator benchmark for one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds perfbench_run (an
optimized build of src/ plus the program in perfbench/src) under
.bench_build/perfbench, then runs repetitions of the workload, each in a
fresh process, until S seconds have passed (at least MIN_REPS of them).

The reference kernel (perfbench/src/reference_kernel.h) runs in its own
process before the first repetition and after each one. Every host time a
repetition measures is multiplied by REFERENCE_S / r, where r is the mean
kernel time just before and just after it: host times are reported in
reference seconds, in which the kernel takes REFERENCE_S. This cancels most
of a shared host's speed swings. Simulated values and counts are untouched.

--trace 0 reports the end-to-end metrics, each the median over the
repetitions. --trace 1 alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones (medians), the raw host seconds and
kernel time behind the normalization, and the tracing overhead: median
traced run_s minus median untraced run_s. The spans of the last traced
repetition are written to .bench_build/perfbench/.

Every repetition checks its own outputs. The run is correct only if every
repetition passed its checks and all of them, traced or not, produced the
same digest of simulated results. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0 only
when the run is correct. perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_DIR, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_run")

WORKLOADS = ("fleet-1024", "cell-market", "storm-overload")
# Simulated arrival horizons the smoke test uses (seconds); long enough for
# storm-overload to see a leader crash and a decode failure.
SMOKE_HORIZON = {"fleet-1024": 60.0, "cell-market": 1800.0, "storm-overload": 400.0}
MIN_REPS = 3
# Reference seconds: host times are scaled so that one pass of the reference
# kernel takes this long.
REFERENCE_S = 0.1
REP_TIMEOUT_S = 150
# Stop starting repetitions once the next one might end past this.
RUN_BUDGET_S = 150


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        # A cache left by another source tree: start over once.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench_run"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_reference():
    proc = subprocess.run([BINARY, "--reference"], stdout=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("reference kernel failed")
    return json.loads(proc.stdout)["reference_s"]


def normalize(rep, reference_s):
    """Expresses the repetition's host times in reference seconds."""
    factor = REFERENCE_S / reference_s
    rep["raw_run_s"] = rep["metrics"]["run_s"]["value"]
    rep["raw_setup_s"] = rep["metrics"]["setup_s"]["value"]
    rep["reference_s"] = reference_s
    for key in ("metrics", "layers"):
        for metric in rep.get(key, {}).values():
            if metric.pop("host"):
                if metric["unit"] == "h/h":
                    metric["value"] /= factor
                else:
                    metric["value"] *= factor


def run_rep(workload, seed, traced, horizon, spans_path):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans", spans_path]
    if horizon is not None:
        cmd += ["--horizon", repr(horizon)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: repetition timed out")
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} seed {seed}: no result (exit {proc.returncode}): "
                         f"{proc.stderr.strip()}")
    if proc.returncode not in (0, 1) or rep["correct"] != (proc.returncode == 0):
        raise BenchError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
    return rep


def describe(index, rep):
    kind = "traced" if rep["traced"] else "untraced"
    checks = "ok" if rep["correct"] else "FAILED: " + "; ".join(rep["checks_failed"])
    print(f"rep {index} ({kind}): attempted {rep['attempted']} failed {rep['failed']} "
          f"run_s {rep['metrics']['run_s']['value']:.4f} (raw {rep['raw_run_s']:.4f} s, "
          f"reference {rep['reference_s']:.4f} s) checks {checks}")


def median_metrics(reps, key):
    names = list(reps[0][key])
    return {name: {"value": statistics.median(r[key][name]["value"] for r in reps),
                   "unit": reps[0][key][name]["unit"]} for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="short simulated horizon, for the smoke test")
    args = parser.parse_args()

    build()
    horizon = SMOKE_HORIZON[args.workload] if args.smoke else None
    spans_path = os.path.join(BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.json")

    start = time.monotonic()
    reps = []
    longest = 0.0
    reference_before = run_reference()

    def measured_rep(traced):
        nonlocal reference_before
        rep = run_rep(args.workload, args.seed, traced, horizon, spans_path)
        reference_after = run_reference()
        normalize(rep, (reference_before + reference_after) / 2)
        reference_before = reference_after
        reps.append(rep)
        describe(len(reps), rep)

    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and (elapsed >= args.seconds or
                                      elapsed + 1.5 * longest > RUN_BUDGET_S):
            break
        # --trace 1 alternates untraced and traced repetitions.
        traced = args.trace == 1 and len(reps) % 2 == 1
        rep_start = time.monotonic()
        measured_rep(traced)
        longest = max(longest, time.monotonic() - rep_start)
    if args.trace == 1 and len(reps) % 2 == 1:
        # End on a traced repetition so both sides have one.
        measured_rep(True)

    digests = {r["digest"] for r in reps}
    correct = all(r["correct"] for r in reps) and len(digests) == 1
    if len(digests) != 1:
        print("digests differ between repetitions:")
        for digest in sorted(digests):
            print("  " + digest)
    untraced = [r for r in reps if not r["traced"]]
    if args.trace == 0:
        metrics = median_metrics(untraced, "metrics")
    else:
        traced = [r for r in reps if r["traced"]]
        metrics = median_metrics(traced, "layers")
        overhead = (statistics.median(r["metrics"]["run_s"]["value"] for r in traced) -
                    statistics.median(r["metrics"]["run_s"]["value"] for r in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, key, sample in (("host.run_raw_s", "raw_run_s", untraced),
                                  ("host.setup_raw_s", "raw_setup_s", untraced),
                                  ("host.reference_s", "reference_s", reps)):
            metrics[name] = {"value": statistics.median(r[key] for r in sample), "unit": "s"}
        print(f"spans of the last traced repetition: {spans_path}")
    print(f"digest: {reps[0]['digest']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as error:
        log(f"perfbench: {error}")
        sys.exit(2)
