// Cross-node span stitching and degraded-fetch attribution (DESIGN.md §11).
//
// Input: causal spans (TraceEvents with a trace_id), from a live Tracer
// snapshot or decoded from `lobster.spans.v1` JSONL by load_spans. Output: one
// TraceSummary per trace_id — well-formedness (exactly one root, every
// parent resolves inside the trace), cross-rank reach, degradation
// classification, and a per-trace attribution of where the wasted time
// went: timed-out attempts + retry backoff ("timeout"), post-detour
// attempts on substitute holders ("detour"), and PFS re-materialization
// ("pfs"). A degraded trace is *stitched* when an attempt begun after its
// first detour has a serve child on another rank. Degraded roots are
// grouped by iteration (root arg2) and their wasted intervals are merged
// as a UNION per iteration — concurrent worker timeouts overlap in wall
// time, so summing durations would overcount the slowdown actually visible
// at the barrier.
//
// Ids stay exact: the JSONL carries them as hex strings (the JSON parser
// holds numbers as doubles), and load_spans decodes them to integers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "telemetry/analysis/report.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::telemetry::analysis {

/// Decodes `lobster.spans.v1` JSONL text. Throws std::runtime_error, with
/// the line number, on a malformed line, a schema mismatch, a missing
/// field, an id that is not 1 to 16 hex digits, an unknown kind or status
/// name, a number that is negative, fractional or out of range (rank past
/// 65535, any other past 2^53), or an end before its begin. A span decodes
/// with ts_us = begin_us and dur_us = end_us - begin_us.
std::vector<TraceEvent> load_spans(const std::string& jsonl_text);
std::vector<TraceEvent> load_spans_file(const std::string& path);

/// Per-trace verdict and attribution.
struct TraceSummary {
  std::uint64_t trace_id = 0;
  std::optional<SpanKind> root_kind;  ///< empty when the trace has no root (malformed)
  std::uint16_t root_rank = 0;
  std::uint64_t sample = 0;  ///< root arg (a kFetch root: samples routed to peers)
  std::uint64_t iter = 0;    ///< root arg2
  std::size_t spans = 0;
  std::size_t ranks = 0;     ///< distinct ranks touched
  bool well_formed = false;  ///< one root, all parents resolve in-trace
  bool degraded = false;     ///< any failed attempt / detour / fallback / fast-fail
  /// An attempt begun at or after the first detour has a serve child on
  /// another rank: the re-route's request crossed ranks and the holder's
  /// handler span parents on it.
  bool stitched = false;
  double duration_us = 0.0;  ///< root span duration
  double timeout_us = 0.0;   ///< failed attempts + backoff sleeps
  double detour_us = 0.0;    ///< attempts issued after the first detour
  double pfs_us = 0.0;       ///< PFS fallback spans
  std::uint64_t attempts = 0;
  std::uint64_t detours = 0;
  std::uint64_t fast_fails = 0;
};

struct SpanAnalysis {
  std::vector<TraceSummary> traces;  ///< all traces, by trace id
  std::size_t total_spans = 0;
  std::size_t fetch_traces = 0;      ///< traces rooted in a kFetch span
  std::size_t degraded_fetches = 0;
  std::size_t cross_rank_fetches = 0;  ///< fetch traces that are stitched
  std::size_t malformed_traces = 0;
  /// Attribution totals over degraded fetch traces (sums of per-trace
  /// buckets — overlap-blind; use iteration_overhead_us for wall impact).
  double timeout_us = 0.0;
  double detour_us = 0.0;
  double pfs_us = 0.0;
  /// iter -> union of degraded-fetch wasted intervals in that iteration.
  std::map<std::uint64_t, double> iteration_overhead_us;
  double union_overhead_us = 0.0;  ///< sum over iteration_overhead_us
};

SpanAnalysis analyze_spans(const std::vector<TraceEvent>& spans);

/// Fetch-latency distribution: all / healthy / degraded rows with count,
/// mean, p50, p95, max (milliseconds).
Table fetch_latency_table(const SpanAnalysis& analysis);

/// Degraded-slowdown attribution: per-bucket totals plus the union-interval
/// per-iteration overhead they explain.
Table span_attribution_table(const SpanAnalysis& analysis);

/// Top-N slowest fetch traces with their critical-path chain.
Table slowest_traces_table(const SpanAnalysis& analysis,
                           const std::vector<TraceEvent>& spans, std::size_t top_n);

}  // namespace lobster::telemetry::analysis
