#!/usr/bin/env python3
"""Shared validator for the benches' machine-readable artifacts.

Every bench emits a schema-versioned JSON document (see
bench/bench_common.hpp: lobster.bench_metrics.v1 for the figure/perf/fault
harnesses, lobster.cluster_metrics.v1 for cluster_soak) and the monitor
emits lobster.heartbeat.v1 JSONL. CI jobs used to each carry their own
inline copy of the schema checks; this script is the single source of
truth, so a schema bump is a one-file change.

Usage:
  validate_metrics.py FILE --schema lobster.bench_metrics.v1 \
      [--require-records] [--record-positive FIELD ...] \
      [--panels a,b] [--strategies a,b] [--scalar NAME ...] \
      [--min K=V ...] [--max K=V ...] [--eq K=V ...] [--lt-field A=B ...] \
      [--gate-ratio "A/B>=V" ...]
  validate_metrics.py FILE --heartbeat     # JSONL heartbeat stream
  validate_metrics.py FILE --events        # lobster.events.v1 JSONL stream
  validate_metrics.py FILE --spans         # lobster.spans.v1 JSONL stream
  validate_metrics.py DIR --incident       # flight-recorder bundle directory

Structural record-field checks are keyed on the schema; numeric gates are
passed per-job from CI so each harness keeps its own thresholds.
"""
import argparse
import json
import os
import sys

RECORD_FIELDS = {
    "lobster.bench_metrics.v1": {
        "key": "records",
        "fields": {
            "panel", "workload", "strategy", "warm_epoch_time_s",
            "speedup_vs_baseline", "hit_ratio", "imbalanced_fraction",
            "gpu_utilization", "samples_per_s",
        },
    },
    "lobster.cluster_metrics.v1": {
        "key": "jobs",
        "fields": {
            "name", "model", "state", "nodes", "shared_namespace", "starved",
            "submit_round", "admit_round", "finish_round", "queue_wait_s",
            "turnaround_s", "isolated_s", "slowdown", "iterations",
            "samples_expected", "samples_delivered", "local_hits", "kv_hits",
            "pfs_reads", "isolated_pfs_reads",
        },
    },
}
HEARTBEAT_SCHEMA = "lobster.heartbeat.v1"
HEARTBEAT_FLAGS = {
    "straggler_gap", "prefetch_outrun", "trace_ring_overflow",
    "peer_down", "retry_storm", "iteration_stalled", "corruption_detected",
    "job_starved", "slow_node_detected", "job_preempt_storm",
}
EVENTS_SCHEMA = "lobster.events.v1"
EVENT_KINDS = {
    "job_admitted", "job_finished", "node_down", "node_rejoin", "breaker_open",
    "breaker_close", "quarantine", "watchdog_stall", "serve_send_failure",
    "incident", "job_preempted", "job_resumed", "job_resized",
}
SPANS_SCHEMA = "lobster.spans.v1"
SPAN_KINDS = {
    "fetch", "attempt", "backoff", "serve", "detour", "pfs_fallback",
    "breaker_fast_fail", "inventory_probe", "multi_get",
}
SPAN_FIELDS = {
    "schema", "trace", "span", "parent", "kind", "status", "rank",
    "begin_us", "end_us", "arg", "arg2",
}
INCIDENT_SCHEMA = "lobster.incident.v1"


def fail(message):
    print(f"validate_metrics: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def parse_kv(pairs):
    out = {}
    for pair in pairs or []:
        key, _, value = pair.partition("=")
        if not key or not value:
            fail(f"malformed K=V argument: {pair!r}")
        out[key] = value
    return out


def validate_heartbeat(path, quiet=False, allow_empty=False):
    lines = [l for l in open(path) if l.strip()]
    if not lines and not allow_empty:
        fail(f"{path}: no heartbeat lines")
    for i, line in enumerate(lines):
        beat = json.loads(line)
        if beat.get("schema") != HEARTBEAT_SCHEMA:
            fail(f"{path}:{i + 1}: schema {beat.get('schema')!r} != {HEARTBEAT_SCHEMA!r}")
        flags = beat.get("flags")
        if not isinstance(flags, dict):
            fail(f"{path}:{i + 1}: missing flags object")
        missing = HEARTBEAT_FLAGS - flags.keys()
        if missing:
            fail(f"{path}:{i + 1}: flags missing {sorted(missing)}")
    if not quiet:
        print(f"validate_metrics: OK: {path} ({len(lines)} heartbeats)")
    return len(lines)


def validate_events(path, quiet=False, allow_empty=False):
    lines = [l for l in open(path) if l.strip()]
    if not lines and not allow_empty:
        fail(f"{path}: no event lines")
    for i, line in enumerate(lines):
        event = json.loads(line)
        if event.get("schema") != EVENTS_SCHEMA:
            fail(f"{path}:{i + 1}: schema {event.get('schema')!r} != {EVENTS_SCHEMA!r}")
        if event.get("kind") not in EVENT_KINDS:
            fail(f"{path}:{i + 1}: unknown event kind {event.get('kind')!r}")
        for field in ("seq", "ts_us", "node", "a", "b"):
            if not isinstance(event.get(field), (int, float)):
                fail(f"{path}:{i + 1}: missing numeric field {field!r}")
        # Trace ids are exact 64-bit values serialized as hex strings ("0"
        # when the event fired outside any span).
        trace = event.get("trace")
        if not isinstance(trace, str) or not trace:
            fail(f"{path}:{i + 1}: trace id must be a hex string")
        int(trace, 16)
    if not quiet:
        print(f"validate_metrics: OK: {path} ({len(lines)} events)")
    return len(lines)


def validate_spans(path, quiet=False, allow_empty=False):
    lines = [l for l in open(path) if l.strip()]
    if not lines and not allow_empty:
        fail(f"{path}: no span lines")
    for i, line in enumerate(lines):
        span = json.loads(line)
        if span.get("schema") != SPANS_SCHEMA:
            fail(f"{path}:{i + 1}: schema {span.get('schema')!r} != {SPANS_SCHEMA!r}")
        missing = SPAN_FIELDS - span.keys()
        if missing:
            fail(f"{path}:{i + 1}: span missing {sorted(missing)}")
        if span["kind"] not in SPAN_KINDS:
            fail(f"{path}:{i + 1}: unknown span kind {span['kind']!r}")
        for field in ("trace", "span", "parent"):
            value = span[field]
            if not isinstance(value, str) or not value:
                fail(f"{path}:{i + 1}: {field} id must be a hex string")
            int(value, 16)
        if span["trace"] == "0" or span["span"] == "0":
            fail(f"{path}:{i + 1}: recorded span has a zero trace/span id")
        if span["end_us"] < span["begin_us"]:
            fail(f"{path}:{i + 1}: end_us before begin_us")
    if not quiet:
        print(f"validate_metrics: OK: {path} ({len(lines)} spans)")
    return len(lines)


def validate_incident(bundle_dir):
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        fail(f"{bundle_dir}: no manifest.json")
    manifest = json.load(open(manifest_path))
    if manifest.get("schema") != INCIDENT_SCHEMA:
        fail(f"{manifest_path}: schema {manifest.get('schema')!r} != {INCIDENT_SCHEMA!r}")
    for field in ("reason", "seq", "ts_us", "spans", "events", "heartbeats", "files"):
        if field not in manifest:
            fail(f"{manifest_path}: missing field {field!r}")
    for name in manifest["files"]:
        if not os.path.isfile(os.path.join(bundle_dir, name)):
            fail(f"{bundle_dir}: manifest references missing file {name!r}")
    # A bundle can legitimately capture an empty ring (incident before any
    # span/event fired), so emptiness gates on the manifest counts instead.
    counts = {
        "spans": validate_spans(os.path.join(bundle_dir, "spans.jsonl"),
                                quiet=True, allow_empty=True),
        "events": validate_events(os.path.join(bundle_dir, "events.jsonl"),
                                  quiet=True, allow_empty=True),
        "heartbeats": validate_heartbeat(os.path.join(bundle_dir, "heartbeats.jsonl"),
                                         quiet=True, allow_empty=True),
    }
    for key, count in counts.items():
        if manifest[key] != count:
            fail(f"{bundle_dir}: manifest says {manifest[key]} {key}, "
                 f"file holds {count}")
    if not os.path.isfile(os.path.join(bundle_dir, "metrics.csv")):
        fail(f"{bundle_dir}: missing metrics.csv")
    print(f"validate_metrics: OK: {bundle_dir} (reason={manifest['reason']!r}, "
          f"{counts['spans']} spans, {counts['events']} events, "
          f"{counts['heartbeats']} heartbeats)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    parser.add_argument("--schema", help="expected schema string")
    parser.add_argument("--heartbeat", action="store_true",
                        help="validate a heartbeat JSONL stream instead")
    parser.add_argument("--events", action="store_true",
                        help="validate a lobster.events.v1 JSONL stream instead")
    parser.add_argument("--spans", action="store_true",
                        help="validate a lobster.spans.v1 JSONL stream instead")
    parser.add_argument("--incident", action="store_true",
                        help="validate a flight-recorder incident bundle directory")
    parser.add_argument("--require-records", action="store_true",
                        help="the record array must be non-empty")
    parser.add_argument("--record-positive", action="append", default=[],
                        metavar="FIELD", help="every record's FIELD must be > 0")
    parser.add_argument("--panels", help="comma-set that record panels must cover")
    parser.add_argument("--strategies", help="comma-set that record strategies must cover")
    parser.add_argument("--scalar", action="append", default=[], metavar="NAME",
                        help="top-level scalar that must be present")
    parser.add_argument("--min", action="append", default=[], metavar="K=V",
                        help="top-level scalar K must be >= V")
    parser.add_argument("--max", action="append", default=[], metavar="K=V",
                        help="top-level scalar K must be <= V")
    parser.add_argument("--eq", action="append", default=[], metavar="K=V",
                        help="top-level scalar K must equal V")
    parser.add_argument("--lt-field", action="append", default=[], metavar="A=B",
                        help="top-level scalar A must be strictly below scalar B")
    parser.add_argument("--gate-ratio", action="append", default=[],
                        metavar="A/B>=V",
                        help="ratio of top-level scalars A/B must be >= V")
    args = parser.parse_args()

    if args.heartbeat:
        validate_heartbeat(args.file)
        return
    if args.events:
        validate_events(args.file)
        return
    if args.spans:
        validate_spans(args.file)
        return
    if args.incident:
        validate_incident(args.file)
        return
    if not args.schema:
        fail("--schema is required unless --heartbeat/--events/--spans/--incident")

    metrics = json.load(open(args.file))
    if metrics.get("schema") != args.schema:
        fail(f"{args.file}: schema {metrics.get('schema')!r} != {args.schema!r}")

    layout = RECORD_FIELDS.get(args.schema)
    if layout is None:
        fail(f"unknown schema {args.schema!r} (known: {sorted(RECORD_FIELDS)})")
    records = metrics.get(layout["key"], [])
    if args.require_records and not records:
        fail(f"{args.file}: no {layout['key']}")
    for record in records:
        missing = layout["fields"] - record.keys()
        if missing:
            fail(f"record missing {sorted(missing)}: {record}")
        for field in args.record_positive:
            if not record.get(field, 0) > 0:
                fail(f"record {field} not positive: {record}")

    if args.schema == "lobster.cluster_metrics.v1":
        # Structural fairness invariants every committed artifact must hold;
        # numeric thresholds (slowdown, dedup) come from the CLI gates.
        for job in records:
            if job["state"] != "finished":
                fail(f"job {job['name']} state {job['state']!r} != 'finished'")
            if job["starved"]:
                fail(f"job {job['name']} starved")
            if job["samples_delivered"] != job["samples_expected"]:
                fail(f"job {job['name']} delivered {job['samples_delivered']} "
                     f"!= expected {job['samples_expected']}")

    for want, field in ((args.panels, "panel"), (args.strategies, "strategy")):
        if want:
            have = {r.get(field) for r in records}
            needed = set(want.split(","))
            if not needed <= have:
                fail(f"{field}s {sorted(needed - have)} absent (have {sorted(have)})")

    for name in args.scalar:
        if name not in metrics:
            fail(f"{args.file}: missing scalar {name!r}")
    for key, value in parse_kv(args.min).items():
        if not float(metrics.get(key, float("-inf"))) >= float(value):
            fail(f"{key} = {metrics.get(key)} < {value}")
    for key, value in parse_kv(args.max).items():
        if not float(metrics.get(key, float("inf"))) <= float(value):
            fail(f"{key} = {metrics.get(key)} > {value}")
    for key, value in parse_kv(args.eq).items():
        if float(metrics.get(key, float("nan"))) != float(value):
            fail(f"{key} = {metrics.get(key)} != {value}")
    for a, b in parse_kv(args.lt_field).items():
        if not float(metrics.get(a, float("inf"))) < float(metrics.get(b, float("-inf"))):
            fail(f"{a} = {metrics.get(a)} not strictly below {b} = {metrics.get(b)}")
    for gate in args.gate_ratio:
        expr, _, threshold = gate.partition(">=")
        numer, slash, denom = expr.partition("/")
        numer, denom, threshold = numer.strip(), denom.strip(), threshold.strip()
        if not (numer and slash and denom and threshold):
            fail(f"malformed --gate-ratio (want 'A/B>=V'): {gate!r}")
        for name in (numer, denom):
            if name not in metrics:
                fail(f"{args.file}: missing scalar {name!r} for --gate-ratio")
        denom_value = float(metrics[denom])
        if denom_value <= 0:
            fail(f"{denom} = {denom_value} not positive (--gate-ratio {gate!r})")
        ratio = float(metrics[numer]) / denom_value
        if not ratio >= float(threshold):
            fail(f"{numer}/{denom} = {ratio:.3f} < {threshold}")

    print(f"validate_metrics: OK: {args.file} ({len(records)} records)")


if __name__ == "__main__":
    main()
