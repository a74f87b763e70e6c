#!/usr/bin/env python3
"""Build and run the backup/restore benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form builds perfbench/ (CMake, Release) under $CARGO_TARGET_DIR
(default .bench_build), runs perfbench, and passes its output through. The
last line of the output is perfbench's JSON result, printed only when it
carries exactly the metrics BENCHMARK.json lists for the mode. The exit
code is perfbench's: 0 when every operation succeeded, 1 when one failed,
2 on a set-up error; 3 means the result did not match BENCHMARK.json.

--self-test builds and runs the benchmark's own tests and checks that the
metric catalog perfbench prints matches BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configure and build `targets`; returns the build directory."""
    source = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = [["cmake", "--build", build_dir, "-j", "4", "--target",
              *targets]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build failed: {' '.join(cmd)}")
    return build_dir


def load_catalog():
    """Metric names and units per mode, from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_result(line, expected):
    """Problems with perfbench's result line, or an empty list."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(expected) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, "
                            f"BENCHMARK.json says {expected[name]!r}")
    return problems


def run(args):
    expected = load_catalog()[args.trace]
    build_dir = build(["perfbench"])
    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace",
           args.trace, "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if done.returncode == 2:
        fail("perfbench failed to set up", 2)
    problems = check_result(lines[-1], expected)
    if problems:
        fail("; ".join(problems), 3)
    print(lines[-1], flush=True)
    return done.returncode


def self_test():
    build_dir = build(["perfbench", "perfbench_test"])
    test = os.path.join(build_dir, "perfbench_test")
    if not os.path.exists(test):
        fail("perfbench_test was not built (GTest missing)")
    listed = subprocess.run([os.path.join(build_dir, "perfbench"),
                             "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    catalog = {"0": {}, "1": {}}
    for row in filter(None, listed):
        mode, name, unit = row.split()
        catalog[mode][name] = unit
    if catalog != load_catalog():
        fail("perfbench's metric catalog differs from BENCHMARK.json")
    print("metric catalog matches BENCHMARK.json")
    return subprocess.run([test], cwd=build_dir).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="22")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        fail("run from the repository root (no BENCHMARK.json here)")
    if args.self_test:
        return self_test()
    if not args.workload:
        fail("--workload is required", 2)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
