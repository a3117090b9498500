// trace_report: offline analysis of `--trace` Chrome-trace artifacts and
// `lobster.spans.v1` causal span logs.
//
// Chrome-trace mode reads a trace written by any bench/example run with
// tracing enabled, reconstructs the per-run pipeline statistics
// (telemetry/analysis), and renders them as aligned text, CSV, or Markdown:
//
//   trace_report --trace fig07_trace.json
//   trace_report --trace out.json --format md --section breakdown
//   trace_report --trace out.json --section counters --warmup 2
//
// Cross-node span mode stitches `lobster.spans.v1` JSONL (written with
// `spans=<path>` or inside a flight-recorder incident bundle) into per-fetch
// span trees, reporting fetch latency distributions, degraded-slowdown
// attribution (timeout vs detour vs PFS, union-merged per iteration), and
// the slowest cross-rank critical paths (DESIGN.md §11):
//
//   trace_report --spans chaos_spans.jsonl
//   trace_report --incident incidents/incident-001 --section events
//
// Exit codes: 0 success, 1 usage error, 2 unreadable/malformed input,
// 3 input parsed but holds nothing analyzable.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/strfmt.hpp"
#include "metrics/report.hpp"
#include "telemetry/analysis/json.hpp"
#include "telemetry/analysis/report.hpp"
#include "telemetry/analysis/span_analysis.hpp"
#include "telemetry/analysis/trace_log.hpp"
#include "telemetry/chrome_trace.hpp"

namespace {

using lobster::Table;
using lobster::strf;
namespace analysis = lobster::telemetry::analysis;

struct Options {
  std::string trace_path;
  std::string spans_path;
  std::string incident_dir;
  analysis::Format format = analysis::Format::kText;
  std::string section = "all";
  analysis::AnalyzeOptions analyze;
  bool have_run_filter = false;
  std::uint32_t run_filter = 0;
  std::size_t top_n = 10;
};

constexpr const char* kSections[] = {"all",   "summary",     "breakdown", "gaps",
                                     "tiers", "attribution", "counters",  "fetches",
                                     "slowest", "events"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --trace <out.json> [--format table|csv|md]\n"
               "          [--section all|summary|breakdown|gaps|tiers|attribution|counters]\n"
               "          [--warmup <epochs>] [--windows <n>] [--run <id>]\n"
               "       %s --spans <spans.jsonl> | --incident <bundle-dir>\n"
               "          [--format table|csv|md]\n"
               "          [--section all|fetches|attribution|slowest|events]\n"
               "          [--top <n>]\n",
               argv0, argv0);
  return 1;
}

bool parse_options(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return false;
      options.trace_path = v;
    } else if (arg == "--spans") {
      const char* v = value();
      if (v == nullptr) return false;
      options.spans_path = v;
    } else if (arg == "--incident") {
      const char* v = value();
      if (v == nullptr) return false;
      options.incident_dir = v;
    } else if (arg == "--top") {
      const char* v = value();
      if (v == nullptr) return false;
      options.top_n = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--format") {
      const char* v = value();
      if (v == nullptr || !analysis::parse_format(v, options.format)) return false;
    } else if (arg == "--section") {
      const char* v = value();
      if (v == nullptr) return false;
      options.section = v;
      bool known = false;
      for (const char* s : kSections) known = known || options.section == s;
      if (!known) return false;
    } else if (arg == "--warmup") {
      const char* v = value();
      if (v == nullptr) return false;
      options.analyze.warmup_epochs = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--windows") {
      const char* v = value();
      if (v == nullptr) return false;
      options.analyze.tier_windows = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--run") {
      const char* v = value();
      if (v == nullptr) return false;
      options.have_run_filter = true;
      options.run_filter = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else {
      return false;
    }
  }
  const int modes = (!options.trace_path.empty() ? 1 : 0) +
                    (!options.spans_path.empty() ? 1 : 0) +
                    (!options.incident_dir.empty() ? 1 : 0);
  return modes == 1;
}

bool wants(const Options& options, const char* section) {
  return options.section == "all" || options.section == section;
}

void print_heading(const Options& options, const char* title) {
  switch (options.format) {
    case analysis::Format::kText: std::printf("== %s ==\n", title); break;
    case analysis::Format::kCsv: std::printf("# section: %s\n", title); break;
    case analysis::Format::kMarkdown: std::printf("## %s\n\n", title); break;
  }
}

void print_table(const Options& options, const char* title, const Table& table) {
  print_heading(options, title);
  std::fputs(analysis::render_table(table, options.format).c_str(), stdout);
  std::printf("\n");
}

Table counters_table(const analysis::TraceLog& log) {
  // Distinct wall-clock counters (pool sizes, cache bytes):
  // sample count plus min/max/last of each series.
  std::vector<std::string> names;
  for (const auto& event : log.events) {
    if (event.pid != lobster::telemetry::kWallPid || event.phase != 'C') continue;
    bool seen = false;
    for (const auto& name : names) seen = seen || name == event.name;
    if (!seen) names.push_back(event.name);
  }
  Table table({"counter", "samples", "min", "max", "last"});
  for (const auto& name : names) {
    const auto series = analysis::wall_counter_series(log, name);
    double lo = series.front().second, hi = lo;
    for (const auto& [ts, v] : series) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    table.add_row({name, strf("%zu", series.size()), Table::num(lo), Table::num(hi),
                   Table::num(series.back().second)});
  }
  return table;
}

/// Per-kind digest of a `lobster.events.v1` JSONL file: count, time span,
/// and the detail of the most recent occurrence.
Table events_table(const std::string& path, bool& ok) {
  Table table({"event", "count", "first_ms", "last_ms", "last_detail"});
  std::ifstream in(path);
  ok = in.is_open();
  if (!ok) return table;
  struct KindStats {
    std::uint64_t count = 0;
    double first_us = 0.0, last_us = 0.0;
    std::string last_detail;
  };
  std::map<std::string, KindStats> kinds;  // ordered for stable output
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    analysis::JsonValue value;
    try {
      value = analysis::parse_json(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace_report: %s:%zu: %s\n", path.c_str(), line_no, e.what());
      ok = false;
      return table;
    }
    if (value.get_string("schema") != "lobster.events.v1") {
      std::fprintf(stderr, "trace_report: %s:%zu: not a lobster.events.v1 record\n",
                   path.c_str(), line_no);
      ok = false;
      return table;
    }
    auto& stats = kinds[value.get_string("kind", "?")];
    const double ts = value.get_number("ts_us");
    if (stats.count == 0) stats.first_us = ts;
    stats.last_us = ts;
    stats.last_detail = value.get_string("detail");
    ++stats.count;
  }
  for (const auto& [kind, stats] : kinds) {
    table.add_row({kind, strf("%llu", static_cast<unsigned long long>(stats.count)),
                   Table::num(stats.first_us / 1e3, 1), Table::num(stats.last_us / 1e3, 1),
                   stats.last_detail});
  }
  return table;
}

int run_span_mode(const Options& options) {
  std::string spans_path = options.spans_path;
  std::string events_path;
  if (!options.incident_dir.empty()) {
    spans_path = options.incident_dir + "/spans.jsonl";
    events_path = options.incident_dir + "/events.jsonl";
    std::ifstream manifest(options.incident_dir + "/manifest.json");
    if (manifest.is_open()) {
      std::stringstream buffer;
      buffer << manifest.rdbuf();
      try {
        const auto value = analysis::parse_json(buffer.str());
        std::printf("incident #%.0f: reason=%s at %.1f ms (%0.f spans, %0.f events, "
                    "%0.f heartbeats)\n\n",
                    value.get_number("seq"), value.get_string("reason", "?").c_str(),
                    value.get_number("ts_us") / 1e3, value.get_number("spans"),
                    value.get_number("events"), value.get_number("heartbeats"));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "trace_report: %s/manifest.json: %s\n",
                     options.incident_dir.c_str(), e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr, "trace_report: cannot read %s/manifest.json\n",
                   options.incident_dir.c_str());
      return 2;
    }
  }

  std::vector<lobster::telemetry::TraceEvent> spans;
  try {
    spans = analysis::load_spans_file(spans_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_report: %s\n", e.what());
    return 2;
  }
  if (spans.empty()) {
    std::fprintf(stderr, "trace_report: %s holds no spans\n", spans_path.c_str());
    return 3;
  }
  const auto result = analysis::analyze_spans(spans);
  if (options.section == "all") {
    std::printf("%zu spans in %zu traces (%zu fetches: %zu degraded, %zu stitched, "
                "%zu malformed)\n\n",
                result.total_spans, result.traces.size(), result.fetch_traces,
                result.degraded_fetches, result.cross_rank_fetches,
                result.malformed_traces);
  }
  if (wants(options, "fetches")) {
    print_table(options, "fetch latency", analysis::fetch_latency_table(result));
  }
  if (wants(options, "attribution")) {
    print_table(options, "degraded-slowdown attribution",
                analysis::span_attribution_table(result));
  }
  if (wants(options, "slowest")) {
    print_table(options, "slowest fetch traces",
                analysis::slowest_traces_table(result, spans, options.top_n));
  }
  if (!events_path.empty() && wants(options, "events")) {
    bool ok = true;
    Table table = events_table(events_path, ok);
    if (!ok) return 2;
    if (table.rows() > 0) print_table(options, "events", table);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) return usage(argv[0]);
  if (!options.spans_path.empty() || !options.incident_dir.empty()) {
    return run_span_mode(options);
  }

  analysis::TraceLog log;
  try {
    log = analysis::load_trace_file(options.trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_report: %s\n", e.what());
    return 2;
  }
  if (log.empty()) {
    std::fprintf(stderr, "trace_report: %s holds no events\n", options.trace_path.c_str());
    return 3;
  }
  if (!log.complete()) {
    std::fprintf(stderr,
                 "trace_report: warning: %llu of %llu events were dropped (ring "
                 "overflow) — the timeline is truncated; rerun with a larger "
                 "trace_buffer\n",
                 static_cast<unsigned long long>(log.dropped),
                 static_cast<unsigned long long>(log.emitted));
  }

  auto runs = analysis::analyze_runs(log, options.analyze);
  if (options.have_run_filter) {
    std::erase_if(runs, [&](const analysis::RunAnalysis& run) {
      return run.run_id != options.run_filter;
    });
  }
  if (runs.empty() && options.section != "counters") {
    std::fprintf(stderr, "trace_report: no analyzable simulator runs in %s\n",
                 options.trace_path.c_str());
    return 3;
  }

  if (wants(options, "summary")) {
    print_table(options, "summary", analysis::summary_table(runs));
  }
  for (const auto& run : runs) {
    const std::string tag = strf("run %u", run.run_id);
    if (wants(options, "breakdown")) {
      print_table(options, strf("%s: warm-epoch stage breakdown (per iteration)",
                                tag.c_str()).c_str(),
                  analysis::breakdown_table(run));
    }
    if (wants(options, "gaps")) {
      print_table(options, strf("%s: iteration gap (Eq. 2-3)", tag.c_str()).c_str(),
                  analysis::gap_table(run));
      if (options.format == analysis::Format::kText && !run.gap_frac_series.empty()) {
        std::printf("gap_frac  %s\n", lobster::metrics::render_series(run.gap_frac_series).c_str());
        std::printf("cache_use %s\n\n",
                    lobster::metrics::render_series(run.cache_used_series).c_str());
      }
    }
    if (wants(options, "attribution")) {
      print_table(options, strf("%s: critical-stage attribution", tag.c_str()).c_str(),
                  analysis::attribution_table(run));
    }
    if (wants(options, "tiers")) {
      print_table(options, strf("%s: windowed tier hits", tag.c_str()).c_str(),
                  analysis::tier_table(run));
    }
  }
  if (wants(options, "counters")) {
    Table table = counters_table(log);
    if (table.rows() > 0) print_table(options, "wall-clock counters", table);
  }
  return 0;
}
