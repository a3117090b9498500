#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary and the lobster library from this checkout's
sources (CMake, into <CARGO_TARGET_DIR or .bench_build>/perfbench), runs one
workload, and checks that the result names exactly the metrics and units
BENCHMARK.json declares.

    python3 perfbench/run.py --workload warm_local --seed 42 --seconds 10 --trace 0

The last stdout line is the JSON result. The build log goes to stderr. The
exit code is non-zero, with no result printed, when the build fails or the
result disagrees with BENCHMARK.json; it is also non-zero, after the result,
when a correctness check failed.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warm_local", "remote_cold", "lobster_planned", "cluster_preempt")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170


def build() -> pathlib.Path:
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_result(line: str, trace: bool) -> str:
    """Returns an error message, or '' when the result matches BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, or units"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--commit", commit()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: perfbench did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace == 1) if lines and lines[-1] else "no output"
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"run.py: perfbench exited {done.returncode}; {error}", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
