#!/usr/bin/env python3
"""Exact-count gate for the repository benchmark.

perfbench's human report marks every count and virtual value whose passes
all agreed as `exact` (and one whose passes differed as `NOT EXACT`). Such a
value is a pure function of the workload and the seed, so it must equal the
committed reference, BENCH_perfbench.json, on any box. Wall-clock values are
never compared.

Usage:
  python3 perfbench/run.py --workload W --seed 42 --seconds 2 --trace 1 > report_W.txt
  perfbench_exact.py BENCH_perfbench.json report_*.txt           # gate
  perfbench_exact.py BENCH_perfbench.json report_*.txt --write   # re-commit

The gate fails (exit 1) when, for a workload in the reference, a report
- lacks a reference metric, or marks it NOT EXACT;
- reads a different value for it;
- marks a metric exact that the reference does not list;
or when a reference workload has no report, a report's workload is not in
the reference, or a report's seed differs.
"""
import argparse
import json
import re
import sys

SCHEMA = "lobster.perfbench_exact.v1"
CONTEXT = re.compile(r"^context: workload=(\S+) seed=(\d+)")
# "  name  value  unit  clock  exactness": the metrics table of the report.
ROW = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)\s+(wall|virtual|cpu|none)\s+(.*?)\s*$")


def parse_report(path):
    """Returns (workload, seed, {exact metric: value}, [NOT EXACT metrics])."""
    lines = open(path, encoding="utf-8").read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty report")
    workload = seed = None
    marks = {}
    for line in lines[:-1]:
        if (m := CONTEXT.match(line)) and workload is None:
            workload, seed = m.group(1), int(m.group(2))
        elif m := ROW.match(line):
            marks[m.group(1)] = m.group(5)
    if workload is None:
        raise ValueError(f"{path}: no context line; is this a perfbench report?")
    # Values come from the JSON result line, which carries full precision.
    values = {name: metric["value"] for name, metric in json.loads(lines[-1])["metrics"].items()}
    exact, not_exact = {}, []
    for name, mark in marks.items():
        if mark == "exact":
            if name not in values:
                raise ValueError(f"{path}: exact metric {name} missing from the JSON result")
            exact[name] = values[name]
        elif mark.startswith("NOT EXACT"):
            not_exact.append(name)
    return workload, seed, exact, not_exact


def compare(reference, reports):
    errors = []
    seen = {}
    for workload, seed, exact, not_exact in reports:
        if seed != reference["seed"]:
            errors.append(f"{workload}: seed {seed}, reference is for seed {reference['seed']}")
        if workload not in reference["workloads"]:
            errors.append(f"{workload}: not in the reference")
        seen[workload] = (exact, not_exact)
    for workload, expected in reference["workloads"].items():
        if workload not in seen:
            errors.append(f"{workload}: no report")
            continue
        exact, not_exact = seen[workload]
        for name, want in expected.items():
            if name in not_exact:
                errors.append(f"{workload}: {name} is NOT EXACT; the reference reads {want!r}")
            elif name not in exact:
                errors.append(f"{workload}: {name} missing; the reference reads {want!r}")
            elif exact[name] != want:
                errors.append(f"{workload}: {name} = {exact[name]!r}, reference {want!r}")
        for name in sorted(set(exact) - set(expected)):
            errors.append(f"{workload}: {name} = {exact[name]!r} is exact but not in the reference")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference")
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--write", action="store_true",
                        help="write the reports' exact values to REFERENCE instead of gating")
    args = parser.parse_args()
    try:
        reports = [parse_report(path) for path in args.reports]
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"perfbench_exact: {e}", file=sys.stderr)
        return 1

    if args.write:
        seeds = {seed for _, seed, _, _ in reports}
        if len(seeds) != 1:
            print(f"perfbench_exact: reports mix seeds {sorted(seeds)}", file=sys.stderr)
            return 1
        reference = {"schema": SCHEMA, "seed": seeds.pop(),
                     "workloads": {w: dict(sorted(exact.items()))
                                   for w, _, exact, _ in sorted(reports, key=lambda r: r[0])}}
        with open(args.reference, "w", encoding="utf-8") as f:
            json.dump(reference, f, indent=2)
            f.write("\n")
        return 0

    with open(args.reference, encoding="utf-8") as f:
        reference = json.load(f)
    if reference.get("schema") != SCHEMA:
        print(f"perfbench_exact: {args.reference}: schema is not {SCHEMA}", file=sys.stderr)
        return 1
    errors = compare(reference, reports)
    for error in errors:
        print(f"perfbench_exact: {error}", file=sys.stderr)
    checked = sum(len(v) for v in reference["workloads"].values())
    print(f"perfbench_exact: {checked} exact values over {len(reference['workloads'])} "
          f"workloads, {len(errors)} mismatches")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
