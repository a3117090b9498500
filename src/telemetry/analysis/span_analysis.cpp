#include "telemetry/analysis/span_analysis.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "telemetry/analysis/json.hpp"

namespace lobster::telemetry::analysis {
namespace {

/// Largest integer a JSON number (a double) carries exactly.
constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

/// Field decoders for one `lobster.spans.v1` line; each throws with the
/// line number instead of letting a hostile value reach a cast.
struct SpanLine {
  const JsonValue& value;
  std::size_t line_no;

  [[noreturn]] void reject(const std::string& what) const {
    throw std::runtime_error("spans line " + std::to_string(line_no) + ": " + what);
  }

  const JsonValue& field(const char* key, JsonValue::Type type) const {
    const auto it = value.object.find(key);
    if (it == value.object.end()) reject(std::string("missing \"") + key + "\"");
    if (it->second.type != type) reject(std::string("\"") + key + "\" has the wrong type");
    return it->second;
  }

  std::uint64_t hex_id(const char* key) const {
    const std::string& text = field(key, JsonValue::Type::kString).string;
    std::uint64_t id = 0;
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, id, 16);
    if (text.empty() || text.size() > 16 || error != std::errc{} || stop != end) {
      reject(std::string("\"") + key + "\" is not 1 to 16 hex digits");
    }
    return id;
  }

  std::uint64_t integer(const char* key, std::uint64_t max) const {
    const double number = field(key, JsonValue::Type::kNumber).number;
    // Written so that NaN fails the range test too.
    if (!(number >= 0.0 && number <= static_cast<double>(max)) || number != std::floor(number)) {
      reject(std::string("\"") + key + "\" is not an integer in [0, " + std::to_string(max) +
             "]");
    }
    return static_cast<std::uint64_t>(number);
  }

  /// Decodes a name through `name_of` over the enum's `count` values.
  template <typename Enum>
  Enum named(const char* key, std::uint8_t count, const char* (*name_of)(Enum)) const {
    const std::string& name = field(key, JsonValue::Type::kString).string;
    for (std::uint8_t i = 0; i < count; ++i) {
      if (name == name_of(static_cast<Enum>(i))) return static_cast<Enum>(i);
    }
    reject(std::string("unknown ") + key + " \"" + name + "\"");
  }
};

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

std::vector<TraceEvent> load_spans(const std::string& jsonl_text) {
  std::vector<TraceEvent> spans;
  std::istringstream in(jsonl_text);
  std::string text;
  std::size_t line_no = 0;
  while (std::getline(in, text)) {
    ++line_no;
    if (text.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue value;
    try {
      value = parse_json(text);
    } catch (const std::exception& e) {
      throw std::runtime_error("spans line " + std::to_string(line_no) + ": " + e.what());
    }
    const SpanLine line{value, line_no};
    if (!value.is_object() || value.get_string("schema") != "lobster.spans.v1") {
      line.reject("schema != lobster.spans.v1");
    }
    TraceEvent span;
    span.trace_id = line.hex_id("trace");
    span.span_id = line.hex_id("span");
    span.parent_span_id = line.hex_id("parent");
    span.kind = line.named("kind", static_cast<std::uint8_t>(SpanKind::kKindCount),
                           &span_kind_name);
    span.status = line.named("status", static_cast<std::uint8_t>(StatusCode::kInvalid) + 1,
                             &status_code_name);
    span.rank = static_cast<std::uint16_t>(line.integer("rank", 0xFFFF));
    span.ts_us = line.integer("begin_us", kMaxExactInteger);
    const std::uint64_t end_us = line.integer("end_us", kMaxExactInteger);
    if (end_us < span.ts_us) line.reject("\"end_us\" is before \"begin_us\"");
    span.dur_us = end_us - span.ts_us;
    span.arg = line.integer("arg", kMaxExactInteger);
    span.arg2 = line.integer("arg2", kMaxExactInteger);
    spans.push_back(span);
  }
  return spans;
}

std::vector<TraceEvent> load_spans_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spans file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_spans(buffer.str());
}

SpanAnalysis analyze_spans(const std::vector<TraceEvent>& spans) {
  SpanAnalysis analysis;
  analysis.total_spans = spans.size();

  std::unordered_map<std::uint64_t, std::vector<const TraceEvent*>> by_trace;
  for (const auto& span : spans) by_trace[span.trace_id].push_back(&span);

  // iter -> wasted wall intervals across ALL degraded fetch traces; merged
  // as a union so overlapping worker timeouts count once.
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> iter_intervals;

  for (auto& [trace_id, members] : by_trace) {
    std::sort(members.begin(), members.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->ts_us < b->ts_us;
              });
    TraceSummary summary;
    summary.trace_id = trace_id;
    summary.spans = members.size();

    std::unordered_set<std::uint64_t> ids;
    std::set<std::uint16_t> ranks;
    const TraceEvent* root = nullptr;
    std::size_t roots = 0;
    for (const auto* span : members) {
      ids.insert(span->span_id);
      ranks.insert(span->rank);
      if (span->parent_span_id == 0) {
        ++roots;
        if (root == nullptr) root = span;
      }
    }
    summary.ranks = ranks.size();
    bool parents_resolve = true;
    for (const auto* span : members) {
      if (span->parent_span_id != 0 && !ids.contains(span->parent_span_id)) {
        parents_resolve = false;
      }
    }
    summary.well_formed = roots == 1 && parents_resolve;
    if (root != nullptr) {
      summary.root_kind = root->kind;
      summary.root_rank = root->rank;
      summary.sample = root->arg;
      summary.iter = root->arg2;
      summary.duration_us = static_cast<double>(root->dur_us);
    }

    // Wasted-time buckets. A trace's first detour splits its attempts:
    // failed attempts and backoffs are the "timeout" bucket; OK attempts
    // issued after a detour are the "detour" bucket (the extra round-trip
    // a healthy fetch would not have made).
    std::uint64_t first_detour_us = ~0ULL;
    for (const auto* span : members) {
      if (span->kind == SpanKind::kDetour) {
        first_detour_us = std::min(first_detour_us, span->ts_us);
      }
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> wasted;
    for (const auto* span : members) {
      const bool failed = span->status != StatusCode::kOk;
      if (span->kind == SpanKind::kAttempt) {
        ++summary.attempts;
        if (failed) {
          summary.degraded = true;
          summary.timeout_us += static_cast<double>(span->dur_us);
          wasted.emplace_back(span->ts_us, span->end_us());
        } else if (span->ts_us >= first_detour_us) {
          summary.detour_us += static_cast<double>(span->dur_us);
          wasted.emplace_back(span->ts_us, span->end_us());
        }
      } else if (span->kind == SpanKind::kBackoff) {
        summary.degraded = true;
        summary.timeout_us += static_cast<double>(span->dur_us);
        wasted.emplace_back(span->ts_us, span->end_us());
      } else if (span->kind == SpanKind::kDetour) {
        summary.degraded = true;
        ++summary.detours;
      } else if (span->kind == SpanKind::kPfsFallback) {
        // NOT a degradation marker by itself: planned PFS-tier fetches (and
        // remote requests with no recorded holder) take this span on the
        // happy path. It only becomes wasted time when the trace also shows
        // a failure (failed attempt / detour / fast-fail).
        summary.pfs_us += static_cast<double>(span->dur_us);
        wasted.emplace_back(span->ts_us, span->end_us());
      } else if (span->kind == SpanKind::kBreakerFastFail) {
        summary.degraded = true;
        ++summary.fast_fails;
      }
    }

    // Stitched: the re-route reached a peer and the peer's serve parents
    // on it. Some attempt begun after the first detour must own a serve
    // child on another rank; merely touching two ranks is true of every
    // batch that reached a peer.
    if (first_detour_us != ~0ULL) {
      std::unordered_map<std::uint64_t, std::uint16_t> rerouted_attempts;  // span -> rank
      for (const auto* span : members) {
        if (span->kind == SpanKind::kAttempt && span->ts_us >= first_detour_us) {
          rerouted_attempts.emplace(span->span_id, span->rank);
        }
      }
      for (const auto* span : members) {
        if (span->kind != SpanKind::kServe) continue;
        const auto it = rerouted_attempts.find(span->parent_span_id);
        if (it != rerouted_attempts.end() && it->second != span->rank) summary.stitched = true;
      }
    }

    if (summary.root_kind == SpanKind::kFetch) {
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
    if (trace.root_kind != SpanKind::kFetch) continue;
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
                           const std::vector<TraceEvent>& spans, std::size_t top_n) {
  std::vector<const TraceSummary*> fetches;
  for (const auto& trace : analysis.traces) {
    if (trace.root_kind == SpanKind::kFetch) fetches.push_back(&trace);
  }
  std::sort(fetches.begin(), fetches.end(),
            [](const TraceSummary* a, const TraceSummary* b) {
              return a->duration_us > b->duration_us;
            });
  if (fetches.size() > top_n) fetches.resize(top_n);

  std::unordered_map<std::uint64_t, std::vector<const TraceEvent*>> by_trace;
  for (const auto& span : spans) by_trace[span.trace_id].push_back(&span);

  Table table({"trace", "routed", "iter", "rank", "ms", "degraded", "path"});
  for (const auto* trace : fetches) {
    auto members = by_trace[trace->trace_id];
    std::sort(members.begin(), members.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->ts_us < b->ts_us;
              });
    // The begin-ordered child chain reads as the fetch's critical path:
    // attempts block their parent and backoffs/fallbacks are sequential.
    std::string path;
    for (const auto* span : members) {
      if (span->parent_span_id == 0) continue;
      if (!path.empty()) path += " > ";
      path += span_kind_name(span->kind);
      if (span->kind == SpanKind::kAttempt || span->kind == SpanKind::kServe) {
        path += '@';
        path += std::to_string(span->rank);
      }
      if (span->status != StatusCode::kOk) {
        path += '(';
        path += status_code_name(span->status);
        path += ')';
      }
    }
    std::string trace_id;
    append_hex_id(trace_id, trace->trace_id);
    table.add_row({std::move(trace_id), std::to_string(trace->sample),
                   std::to_string(trace->iter), std::to_string(trace->root_rank),
                   Table::num(trace->duration_us / 1e3),
                   trace->degraded ? "yes" : "no", path});
  }
  return table;
}

}  // namespace lobster::telemetry::analysis
