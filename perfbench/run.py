#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, default seed
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
perfbench program and the simulator libraries under .bench_build/ (build
output goes to stderr); later calls rebuild only what changed. The
program's stdout is passed through, so the last line is the result JSON.
For the default seed the recorded expected digest of the workload
(perfbench/expected.json) is handed to the program, which counts every
operation of a round whose output digest differs as failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("characterize", "arena_mix", "serve_zipf")
# Each perfbench run ends well within this; a hung run is killed and fails.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def perfbench(workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out: " + " ".join(cmd))


def self_test():
    """Tiny-scale checks of the benchmark itself."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []

    def run(workload, trace, *extra, exit_code=0):
        out = perfbench(workload, 1, 0.5, trace, ("--tiny", *extra), True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != exit_code or not lines:
            failures.append(f"{workload}: perfbench exited {out.returncode}")
            return {}, {}
        info = dict(l.split(" ", 1) for l in lines
                    if l.startswith(("digest ", "fingerprint ")))
        return json.loads(lines[-1]), info

    for workload in WORKLOADS:
        before = len(failures)
        results = {}
        for trace in (0, 1):
            result, info = run(workload, trace)
            results[trace] = info
            if not result:
                continue
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{workload} trace={trace}: not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{workload} trace={trace}: metrics/units "
                                f"differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}")
        again = run(workload, 0)[1]
        if not results.get(0) or again != results[0] or \
                results.get(1) != results[0]:
            failures.append(f"{workload}: digest or deterministic counters "
                            "differ between runs of one seed")
        wrong, _ = run(workload, 0, "--expect-digest", "0" * 16,
                       exit_code=1)
        if not wrong or wrong["failed"] == 0 or wrong["correct"]:
            failures.append(f"{workload}: a wrong expected digest did not "
                            "fail the run")
        print(f"self-test {workload}: "
              f"{'ok' if len(failures) == before else 'FAILED'}",
              file=sys.stderr)
    for failure in failures:
        print("self-test: " + failure, file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        return self_test()
    recorded = expected()
    seed = recorded["default_seed"] if args.seed is None else args.seed
    status = 0
    # Without --workload, every workload runs in turn.
    for workload in [args.workload] if args.workload else WORKLOADS:
        extra = []
        if seed == recorded["default_seed"]:
            extra = ["--expect-digest", recorded["digests"][workload]]
        status |= perfbench(workload, seed, args.seconds, args.trace,
                            extra).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
