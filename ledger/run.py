#!/usr/bin/env python3
"""Layer-ledger benchmark: build fsmoe_ledger from source and run it.

    python3 ledger/run.py --workload tune_cold --seed 0 --seconds 30 --trace 0
    python3 ledger/run.py               # every workload, one process each
    python3 ledger/run.py --selftest    # the ledger's own arithmetic tests

The fsmoe_ledger binary (ledger/ledger.cc) is built in Release with CMake into
.bench_build on first use and incrementally after that.
Build output goes to stderr; stdout carries fsmoe_ledger's report, whose
last line is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is fsmoe_ledger's: 0 only when every output
check passed on a valid (optimized, unsanitized, unaudited) build.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER_DIR = os.path.join(ROOT, "ledger")
WORKLOADS = ["sweep_demo_cold", "tune_cold", "service_demo"]


def build(target):
    """Configure once, then build @target; exits non-zero on failure."""
    build_dir = os.path.join(ROOT, ".bench_build")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", LEDGER_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", target])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(proc.returncode or 1)
    return os.path.join(build_dir, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode not in (0, 1):  # 1 = ran, but a check failed
        return proc.returncode
    want = expected_metrics(args.trace)
    got = set(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    if want is not None and got != want:
        sys.stderr.write("run.py: metrics differ from BENCHMARK.json: "
                         "missing %s, extra %s\n"
                         % (sorted(want - got), sorted(got - want)))
        return 3
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 gives the blessed inputs")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the ledger's arithmetic tests")
    args = p.parse_args()
    os.chdir(ROOT)

    if args.selftest:
        return subprocess.run([build("ledger_math_test")]).returncode

    binary = build("fsmoe_ledger")
    if args.workload:
        return run_workload(binary, args)
    status = 0
    for workload in WORKLOADS:
        args.workload = workload
        status = run_workload(binary, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
