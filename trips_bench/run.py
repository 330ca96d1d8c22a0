#!/usr/bin/env python3
"""The TRIPS benchmark command.

Builds the benchmark (trips_bench/CMakeLists.txt, which compiles the
repository's src/ tree) and runs one workload:

    python3 trips_bench/run.py --workload batch_mall --seed 1 --seconds 15 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/. The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero when
a correctness check fails or nothing could be built.

Two more modes:

    python3 trips_bench/run.py --selfcheck [--workload W] [--seed N] [--seconds S]
        Runs each workload twice with one seed and once with the next seed and
        asserts the deterministic work counters (and the quality metrics)
        match exactly for the same seed and change with the other.
    python3 trips_bench/run.py --test
        Builds and runs the benchmark's own accounting tests.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_mall", "stream_mall", "cluster_city"]
# End-to-end metrics that must repeat exactly for one seed.
EXACT_METRICS = ["region_match_pct", "event_match_pct", "delivered_record_ratio"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configures and builds `target`; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service.h")):
        log("trips_bench: the TRIPS sources (src/) are not in this checkout")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the benchmark report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("trips_bench: build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, target)
    return binary if os.path.isfile(binary) else None


def run_workload(binary, workload, seed, seconds, trace, echo):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "work-%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work]
    if trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "spans-%s-%s.tsv" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def parse(lines):
    """Extracts (counters, final result) from a run's output."""
    counters, result = None, None
    for line in lines:
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return counters, result


def selfcheck(binary, workloads, seed, seconds):
    ok = True
    for workload in workloads:
        runs = []
        for s in (seed, seed, seed + 1):
            code, lines = run_workload(binary, workload, s, seconds, False, False)
            counters, result = parse(lines)
            if code != 0 or counters is None or result is None:
                log("%s seed %d: run failed (exit %d)" % (workload, s, code))
                ok = False
                break
            runs.append((counters, result["metrics"]))
        if len(runs) < 3:
            continue
        (c1, m1), (c2, m2), (c3, _) = runs
        same = c1 == c2 and all(m1[k]["value"] == m2[k]["value"] for k in EXACT_METRICS)
        differs = c1 != c3
        log("%s: same seed %s, other seed %s (%d counters)" %
            (workload, "identical" if same else "DIFFERENT",
             "differs" if differs else "IDENTICAL", len(c1)))
        if not same:
            for k in sorted(set(c1) | set(c2)):
                if c1.get(k) != c2.get(k):
                    log("  %s: %s vs %s" % (k, c1.get(k), c2.get(k)))
        ok = ok and same and differs
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        binary = build("trips_bench_tests")
        if binary is None:
            return 2
        return subprocess.run([binary]).returncode

    binary = build("trips_bench")
    if binary is None:
        return 2
    if args.selfcheck:
        workloads = [args.workload] if args.workload else WORKLOADS
        return 0 if selfcheck(binary, workloads, args.seed, args.seconds) else 1
    if args.workload is None:
        parser.error("--workload is required")
    code, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                           args.trace == 1, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
