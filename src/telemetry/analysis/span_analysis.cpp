#include "telemetry/analysis/span_analysis.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "telemetry/analysis/json.hpp"

namespace lobster::telemetry::analysis {
namespace {

std::string hex_id(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const auto nibble = (id >> shift) & 0xF;
    if (nibble != 0) started = true;
    if (started || shift == 0) out.push_back(kDigits[nibble]);
  }
  return out;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Merges [begin,end) intervals and returns the union length.
double union_length_us(std::vector<std::pair<std::uint64_t, std::uint64_t>>& intervals) {
  if (intervals.empty()) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  auto [cur_b, cur_e] = intervals.front();
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    const auto [b, e] = intervals[i];
    if (b <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      total += static_cast<double>(cur_e - cur_b);
      cur_b = b;
      cur_e = e;
    }
  }
  total += static_cast<double>(cur_e - cur_b);
  return total;
}

}  // namespace

std::vector<LoadedSpan> load_spans(const std::string& jsonl_text) {
  std::vector<LoadedSpan> spans;
  std::istringstream in(jsonl_text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue value;
    try {
      value = parse_json(line);
    } catch (const std::exception& e) {
      throw std::runtime_error("spans line " + std::to_string(line_no) + ": " + e.what());
    }
    if (value.get_string("schema") != "lobster.spans.v1") {
      throw std::runtime_error("spans line " + std::to_string(line_no) +
                               ": schema != lobster.spans.v1");
    }
    LoadedSpan span;
    span.trace = value.get_string("trace", "0");
    span.span = value.get_string("span", "0");
    span.parent = value.get_string("parent", "0");
    span.kind = value.get_string("kind");
    span.status = value.get_string("status", "ok");
    span.rank = static_cast<std::uint16_t>(value.get_number("rank"));
    span.begin_us = static_cast<std::uint64_t>(value.get_number("begin_us"));
    span.end_us = static_cast<std::uint64_t>(value.get_number("end_us"));
    span.arg = static_cast<std::uint64_t>(value.get_number("arg"));
    span.arg2 = static_cast<std::uint64_t>(value.get_number("arg2"));
    spans.push_back(std::move(span));
  }
  return spans;
}

std::vector<LoadedSpan> load_spans_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spans file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_spans(buffer.str());
}

std::vector<LoadedSpan> spans_from_records(const std::vector<SpanRecord>& records) {
  std::vector<LoadedSpan> spans;
  spans.reserve(records.size());
  for (const auto& record : records) {
    LoadedSpan span;
    span.trace = hex_id(record.trace_id);
    span.span = hex_id(record.span_id);
    span.parent = hex_id(record.parent_span_id);
    span.kind = span_kind_name(record.kind);
    span.status = status_code_name(record.status);
    span.rank = record.rank;
    span.begin_us = record.begin_us;
    span.end_us = record.end_us;
    span.arg = record.arg;
    span.arg2 = record.arg2;
    spans.push_back(std::move(span));
  }
  return spans;
}

SpanAnalysis analyze_spans(const std::vector<LoadedSpan>& spans) {
  SpanAnalysis analysis;
  analysis.total_spans = spans.size();

  std::unordered_map<std::string, std::vector<const LoadedSpan*>> by_trace;
  for (const auto& span : spans) by_trace[span.trace].push_back(&span);

  // iter -> wasted wall intervals across ALL degraded fetch traces; merged
  // as a union so overlapping worker timeouts count once.
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> iter_intervals;

  for (auto& [trace_id, members] : by_trace) {
    std::sort(members.begin(), members.end(),
              [](const LoadedSpan* a, const LoadedSpan* b) {
                return a->begin_us < b->begin_us;
              });
    TraceSummary summary;
    summary.trace_id = trace_id;
    summary.spans = members.size();

    std::unordered_set<std::string> ids;
    std::set<std::uint16_t> ranks;
    const LoadedSpan* root = nullptr;
    std::size_t roots = 0;
    for (const auto* span : members) {
      ids.insert(span->span);
      ranks.insert(span->rank);
      if (span->parent == "0") {
        ++roots;
        if (root == nullptr) root = span;
      }
    }
    summary.ranks = ranks.size();
    bool parents_resolve = true;
    for (const auto* span : members) {
      if (span->parent != "0" && !ids.contains(span->parent)) parents_resolve = false;
    }
    summary.well_formed = roots == 1 && parents_resolve;
    if (root != nullptr) {
      summary.root_kind = root->kind;
      summary.root_rank = root->rank;
      summary.sample = root->arg;
      summary.iter = root->arg2;
      summary.duration_us = root->duration_us();
    }

    // Wasted-time buckets. A trace's first detour splits its attempts:
    // failed attempts and backoffs are the "timeout" bucket; OK attempts
    // issued after a detour are the "detour" bucket (the extra round-trip
    // a healthy fetch would not have made).
    std::uint64_t first_detour_us = ~0ULL;
    for (const auto* span : members) {
      if (span->kind == "detour") first_detour_us = std::min(first_detour_us, span->begin_us);
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> wasted;
    for (const auto* span : members) {
      const bool failed = span->status != "ok";
      if (span->kind == "attempt") {
        ++summary.attempts;
        if (failed) {
          summary.degraded = true;
          summary.timeout_us += span->duration_us();
          wasted.emplace_back(span->begin_us, span->end_us);
        } else if (span->begin_us >= first_detour_us) {
          summary.detour_us += span->duration_us();
          wasted.emplace_back(span->begin_us, span->end_us);
        }
      } else if (span->kind == "backoff") {
        summary.degraded = true;
        summary.timeout_us += span->duration_us();
        wasted.emplace_back(span->begin_us, span->end_us);
      } else if (span->kind == "detour") {
        summary.degraded = true;
        ++summary.detours;
      } else if (span->kind == "pfs_fallback") {
        // NOT a degradation marker by itself: planned PFS-tier fetches (and
        // remote requests with no recorded holder) take this span on the
        // happy path. It only becomes wasted time when the trace also shows
        // a failure (failed attempt / detour / fast-fail).
        summary.pfs_us += span->duration_us();
        wasted.emplace_back(span->begin_us, span->end_us);
      } else if (span->kind == "breaker_fast_fail") {
        summary.degraded = true;
        ++summary.fast_fails;
      }
    }

    // Stitched: the re-route reached a peer and the peer's serve parents
    // on it. Some attempt begun after the first detour must own a serve
    // child on another rank; merely touching two ranks is true of every
    // batch that reached a peer.
    if (first_detour_us != ~0ULL) {
      std::unordered_map<std::string, std::uint16_t> rerouted_attempts;  // span -> rank
      for (const auto* span : members) {
        if (span->kind == "attempt" && span->begin_us >= first_detour_us) {
          rerouted_attempts.emplace(span->span, span->rank);
        }
      }
      for (const auto* span : members) {
        if (span->kind != "serve") continue;
        const auto it = rerouted_attempts.find(span->parent);
        if (it != rerouted_attempts.end() && it->second != span->rank) summary.stitched = true;
      }
    }

    if (summary.root_kind == "fetch") {
      ++analysis.fetch_traces;
      if (summary.degraded) {
        ++analysis.degraded_fetches;
        analysis.timeout_us += summary.timeout_us;
        analysis.detour_us += summary.detour_us;
        analysis.pfs_us += summary.pfs_us;
        auto& slot = iter_intervals[summary.iter];
        slot.insert(slot.end(), wasted.begin(), wasted.end());
      }
      if (summary.stitched) ++analysis.cross_rank_fetches;
    }
    if (!summary.well_formed) ++analysis.malformed_traces;
    analysis.traces.push_back(std::move(summary));
  }

  std::sort(analysis.traces.begin(), analysis.traces.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              return a.trace_id < b.trace_id;
            });

  for (auto& [iter, intervals] : iter_intervals) {
    const double unioned = union_length_us(intervals);
    analysis.iteration_overhead_us[iter] = unioned;
    analysis.union_overhead_us += unioned;
  }
  return analysis;
}

Table fetch_latency_table(const SpanAnalysis& analysis) {
  Table table({"fetches", "count", "mean_ms", "p50_ms", "p95_ms", "max_ms"});
  const auto add_row = [&table](const char* label, std::vector<double>& lat_us) {
    std::sort(lat_us.begin(), lat_us.end());
    double sum = 0.0;
    for (const double v : lat_us) sum += v;
    const double mean = lat_us.empty() ? 0.0 : sum / static_cast<double>(lat_us.size());
    table.add_row({label, std::to_string(lat_us.size()), Table::num(mean / 1e3),
                   Table::num(percentile(lat_us, 0.50) / 1e3),
                   Table::num(percentile(lat_us, 0.95) / 1e3),
                   Table::num(lat_us.empty() ? 0.0 : lat_us.back() / 1e3)});
  };
  std::vector<double> all, healthy, degraded;
  for (const auto& trace : analysis.traces) {
    if (trace.root_kind != "fetch") continue;
    all.push_back(trace.duration_us);
    (trace.degraded ? degraded : healthy).push_back(trace.duration_us);
  }
  add_row("all", all);
  add_row("healthy", healthy);
  add_row("degraded", degraded);
  return table;
}

Table span_attribution_table(const SpanAnalysis& analysis) {
  Table table({"bucket", "total_ms", "share"});
  const double total = analysis.timeout_us + analysis.detour_us + analysis.pfs_us;
  const auto share = [total](double v) {
    return total > 0.0 ? Table::num(v / total) : Table::num(0.0);
  };
  table.add_row({"timeout+backoff", Table::num(analysis.timeout_us / 1e3),
                 share(analysis.timeout_us)});
  table.add_row({"detour", Table::num(analysis.detour_us / 1e3), share(analysis.detour_us)});
  table.add_row({"pfs_fallback", Table::num(analysis.pfs_us / 1e3), share(analysis.pfs_us)});
  table.add_row({"union_overhead", Table::num(analysis.union_overhead_us / 1e3), "-"});
  table.add_row({"degraded_iterations",
                 std::to_string(analysis.iteration_overhead_us.size()), "-"});
  return table;
}

Table slowest_traces_table(const SpanAnalysis& analysis,
                           const std::vector<LoadedSpan>& spans, std::size_t top_n) {
  std::vector<const TraceSummary*> fetches;
  for (const auto& trace : analysis.traces) {
    if (trace.root_kind == "fetch") fetches.push_back(&trace);
  }
  std::sort(fetches.begin(), fetches.end(),
            [](const TraceSummary* a, const TraceSummary* b) {
              return a->duration_us > b->duration_us;
            });
  if (fetches.size() > top_n) fetches.resize(top_n);

  std::unordered_map<std::string, std::vector<const LoadedSpan*>> by_trace;
  for (const auto& span : spans) by_trace[span.trace].push_back(&span);

  Table table({"trace", "routed", "iter", "rank", "ms", "degraded", "path"});
  for (const auto* trace : fetches) {
    auto members = by_trace[trace->trace_id];
    std::sort(members.begin(), members.end(),
              [](const LoadedSpan* a, const LoadedSpan* b) {
                return a->begin_us < b->begin_us;
              });
    // The begin-ordered child chain reads as the fetch's critical path:
    // attempts block their parent and backoffs/fallbacks are sequential.
    std::string path;
    for (const auto* span : members) {
      if (span->parent == "0") continue;
      if (!path.empty()) path += " > ";
      path += span->kind;
      if (span->kind == "attempt" || span->kind == "serve") {
        path += '@';
        path += std::to_string(span->rank);
      }
      if (span->status != "ok") {
        path += '(';
        path += span->status;
        path += ')';
      }
    }
    table.add_row({trace->trace_id, std::to_string(trace->sample),
                   std::to_string(trace->iter), std::to_string(trace->root_rank),
                   Table::num(trace->duration_us / 1e3),
                   trace->degraded ? "yes" : "no", path});
  }
  return table;
}

}  // namespace lobster::telemetry::analysis
