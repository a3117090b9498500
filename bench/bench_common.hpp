// Shared helpers for the figure-reproduction benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/strfmt.hpp"
#include "common/table.hpp"
#include "pipeline/simulator.hpp"
#include "runtime/executor.hpp"
#include "telemetry/analysis/json.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/events.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::bench {

/// Schema identifiers for every machine-readable artifact the benches
/// write. CI and tools/validate_metrics.py match on these exact strings,
/// so they are defined once here instead of scattered as literals.
inline constexpr const char* kBenchMetricsSchema = "lobster.bench_metrics.v1";
inline constexpr const char* kClusterMetricsSchema = "lobster.cluster_metrics.v1";

/// Parses key=value CLI arguments. Every bench accepts `csv_dir=<path>` to
/// additionally dump each printed table as CSV, `--trace <out.json>`
/// (or `trace=out.json`) to record a Chrome trace of the run (see
/// TraceSession), `--metrics-json <out.json>` (or `metrics_json=...`) for a
/// structured result record (see MetricsJson), and `heartbeat=<ms>` /
/// `heartbeat_jsonl=<path>` for the live monitor.
inline Config parse_args(int argc, char** argv) {
  // `--trace out.json` / `--metrics-json out.json` are the space-separated
  // flags benches accept; fold them into key=value form before the strict
  // '='-only parser sees them.
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value =
        i + 1 < argc && std::string_view(argv[i + 1]).find('=') == std::string_view::npos;
    if (arg == "--trace" && has_value) {
      tokens.push_back(std::string("trace=") + argv[++i]);
      continue;
    }
    if (arg == "--metrics-json" && has_value) {
      tokens.push_back(std::string("metrics_json=") + argv[++i]);
      continue;
    }
    tokens.emplace_back(arg);
  }
  return Config::from_tokens(tokens);
}

/// Turns tracing on for the bench's lifetime when `--trace <out.json>`
/// and/or a heartbeat was requested; on destruction stops the monitor and
/// exports the Chrome trace plus a `<out.json>.counters.csv` metric dump.
///
/// Options: `trace_buffer=<records>` sizes the per-thread ring buffers
/// (default 1<<14); `heartbeat=<ms>` starts the live monitor on that
/// interval; `heartbeat_jsonl=<path>` adds its JSONL sink;
/// `heartbeat_gap_threshold=<frac>` tunes the straggler flag (default 0.1).
///
/// Causal-tracing options (DESIGN.md §11) arm the Tracer, whose per-thread
/// rings record the causal spans: `spans=<path>` writes the cross-node span
/// trees as `lobster.spans.v1` JSONL on destruction; `events=<path>` arms
/// the structured event log streaming `lobster.events.v1` JSONL;
/// `incident_dir=<dir>` creates a FlightRecorder fed by the monitor's
/// heartbeats (anomaly flags trigger bundle dumps into
/// `<dir>/incident-NNN/`); `incident_force=1` force-triggers one bundle at
/// shutdown when the run raised no anomaly, so CI always has an artifact to
/// validate.
class TraceSession {
 public:
  explicit TraceSession(const Config& config) : path_(config.get_string("trace", "")) {
    const auto capacity = config.get_int("trace_buffer", 0);
    const auto heartbeat_ms = config.get_int("heartbeat", 0);
    const std::string heartbeat_jsonl = config.get_string("heartbeat_jsonl", "");
    const double gap_threshold = config.get_double("heartbeat_gap_threshold", 0.10);
    spans_path_ = config.get_string("spans", "");
    events_path_ = config.get_string("events", "");
    const std::string incident_dir = config.get_string("incident_dir", "");
    incident_force_ = config.get_int("incident_force", 0) != 0;
    const bool causal_wanted =
        !spans_path_.empty() || !events_path_.empty() || !incident_dir.empty();
    // An incident bundle needs heartbeats to be useful, so an incident_dir
    // implies the monitor even without an explicit heartbeat= option.
    const bool monitor_wanted =
        heartbeat_ms > 0 || !heartbeat_jsonl.empty() || !incident_dir.empty();
    if (path_.empty() && !monitor_wanted && !causal_wanted) return;

    // A trace or causal request arms full recording (events and spans); a
    // heartbeat-only request arms just the LOBSTER_METRIC_* aggregates
    // (metrics-only mode), which keeps the monitor's overhead to atomic
    // counter updates.
    auto& tracer = telemetry::Tracer::instance();
    if (capacity > 0) tracer.set_buffer_capacity(static_cast<std::size_t>(capacity));
    if (!path_.empty() || causal_wanted) {
      tracer.set_enabled(true);
    } else {
      tracer.set_metrics_enabled(true);
    }
    enabled_ = true;
#if defined(LOBSTER_TELEMETRY_DISABLED)
    std::fprintf(stderr,
                 "warning: --trace/heartbeat given but built with LOBSTER_TELEMETRY=OFF; "
                 "only directly-instrumented events will be recorded\n");
#endif
    if (causal_wanted) {
      // Spans and events always arm together: events carry the trace id of
      // the span active when they fired, and an incident bundle snapshots
      // both.
      auto& events = telemetry::EventLog::instance();
      events.set_enabled(true);
      if (!events_path_.empty() && !events.open_stream(events_path_)) {
        std::fprintf(stderr, "warning: cannot open event sink %s\n", events_path_.c_str());
        events_path_.clear();
      }
      events_open_ = !events_path_.empty();
    }
    if (!incident_dir.empty()) {
      telemetry::FlightRecorderConfig recorder_config;
      recorder_config.out_dir = incident_dir;
      recorder_ = std::make_unique<telemetry::FlightRecorder>(recorder_config);
    }
    if (monitor_wanted) {
      telemetry::MonitorConfig monitor_config;
      monitor_config.interval =
          std::chrono::milliseconds(heartbeat_ms > 0 ? heartbeat_ms : 1000);
      monitor_config.jsonl_path = heartbeat_jsonl;
      monitor_config.straggler_gap_threshold = gap_threshold;
      monitor_config.recorder = recorder_.get();
      monitor_ = std::make_unique<telemetry::Monitor>(monitor_config);
      monitor_->start();
    }
  }

  /// The recorder wired into the monitor, or nullptr. Benches hook extra
  /// triggers (watchdog stalls) into it.
  telemetry::FlightRecorder* flight_recorder() noexcept { return recorder_.get(); }

  ~TraceSession() {
    if (!enabled_) return;
    if (monitor_ != nullptr) monitor_->stop();  // final heartbeat while live
    if (recorder_ != nullptr && incident_force_ && recorder_->bundles_written() == 0) {
      recorder_->trigger("forced_at_shutdown");
    }
    auto& tracer = telemetry::Tracer::instance();
    tracer.set_enabled(false);
    tracer.set_metrics_enabled(false);
    if (!spans_path_.empty()) {
      std::ofstream out(spans_path_);
      telemetry::write_spans_jsonl(out, tracer.snapshot().spans);
      if (out.good()) {
        std::printf("(spans written to %s)\n", spans_path_.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot write spans %s\n", spans_path_.c_str());
      }
    }
    if (events_open_) {
      telemetry::EventLog::instance().close_stream();
      std::printf("(events written to %s)\n", events_path_.c_str());
    }
    telemetry::EventLog::instance().set_enabled(false);
    if (path_.empty()) return;
    if (telemetry::write_chrome_trace_file(path_)) {
      std::printf("(trace written to %s — load in chrome://tracing or ui.perfetto.dev)\n",
                  path_.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write trace %s\n", path_.c_str());
    }
    const std::string counters_path = path_ + ".counters.csv";
    if (telemetry::MetricRegistry::instance().write_csv_file(counters_path)) {
      std::printf("(counters written to %s)\n", counters_path.c_str());
    }
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
  std::string spans_path_;
  std::string events_path_;
  bool events_open_ = false;
  bool incident_force_ = false;
  bool enabled_ = false;
  std::unique_ptr<telemetry::FlightRecorder> recorder_;
  std::unique_ptr<telemetry::Monitor> monitor_;
};

/// One comparison row for the structured metrics artifact.
struct MetricsRecord {
  std::string panel;     ///< e.g. "fig07a"
  std::string workload;  ///< e.g. "imagenet1k scale=64"
  std::string strategy;  ///< e.g. "lobster"
  double warm_epoch_time_s = 0.0;
  double speedup_vs_baseline = 1.0;
  double hit_ratio = 0.0;
  double imbalanced_fraction = 0.0;
  double gpu_utilization = 0.0;
  double samples_per_s = 0.0;
};

/// Fills a MetricsRecord's hit ratio and GPU utilisation from the executor
/// reports of one run (one per node), summed over the reports: local hits
/// over demand requests, and iterations x `t_train` over modeled time.
inline void fill_executor_shares(MetricsRecord& record,
                                 const std::vector<runtime::ExecutionReport>& reports,
                                 Seconds t_train) {
  std::uint64_t hits = 0;
  std::uint64_t demand = 0;
  double train_s = 0.0;
  double total_s = 0.0;
  for (const auto& report : reports) {
    for (const auto& iteration : report.iterations) {
      hits += iteration.local_hits;
      demand += iteration.demand_requests;
    }
    train_s += static_cast<double>(report.iterations.size()) * t_train;
    total_s += report.virtual_total;
  }
  record.hit_ratio = demand > 0 ? static_cast<double>(hits) / static_cast<double>(demand) : 0.0;
  record.gpu_utilization = total_s > 0.0 ? train_s / total_s : 0.0;
}

/// Fills a MetricsRecord from a simulation result, using the same
/// aggregates as metrics::comparison_table (warm-epoch timing, hit ratio,
/// imbalanced fraction, GPU utilisation, samples/s).
inline MetricsRecord make_record(std::string panel, std::string workload, std::string strategy,
                                 const pipeline::SimulationResult& result,
                                 double baseline_warm_time_s,
                                 std::uint32_t warmup_epochs = 1) {
  MetricsRecord record;
  record.panel = std::move(panel);
  record.workload = std::move(workload);
  record.strategy = std::move(strategy);
  record.warm_epoch_time_s = result.metrics.time_after_epoch(warmup_epochs);
  record.speedup_vs_baseline =
      record.warm_epoch_time_s > 0.0 ? baseline_warm_time_s / record.warm_epoch_time_s : 0.0;
  record.hit_ratio = result.metrics.hit_ratio();
  record.imbalanced_fraction = result.metrics.imbalanced_fraction();
  record.gpu_utilization = result.metrics.gpu_utilization();
  record.samples_per_s = result.samples_per_second;
  return record;
}

/// Collects bench results and writes one schema-versioned JSON document
/// (kBenchMetricsSchema unless overridden) on destruction when
/// `--metrics-json <path>` was given; inert otherwise. CI jobs diff these
/// instead of scraping stdout tables.
class MetricsJson {
 public:
  MetricsJson(const Config& config, std::string bench_name,
              std::string schema = kBenchMetricsSchema)
      : path_(config.get_string("metrics_json", "")),
        bench_(std::move(bench_name)),
        schema_(std::move(schema)) {}

  bool enabled() const noexcept { return !path_.empty(); }

  void add(const MetricsRecord& record) {
    if (enabled()) records_.push_back(record);
  }
  /// Free-form top-level scalar (wall time, monitor overhead, ...).
  void set_scalar(const std::string& key, double value) {
    if (enabled()) scalars_.emplace_back(key, value);
  }

  ~MetricsJson() {
    if (!enabled()) return;
    namespace aj = telemetry::analysis;
    std::string out;
    out.reserve(1024);
    out += "{\n  ";
    aj::append_json_quoted(out, "schema");
    out += ": ";
    aj::append_json_quoted(out, schema_);
    out += ",\n  ";
    aj::append_json_quoted(out, "bench");
    out += ": ";
    aj::append_json_quoted(out, bench_);
    for (const auto& [key, value] : scalars_) {
      out += ",\n  ";
      aj::append_json_quoted(out, key);
      out += strf(": %.9g", value);
    }
    out += ",\n  ";
    aj::append_json_quoted(out, "records");
    out += ": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const MetricsRecord& r = records_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {";
      auto field = [&out](const char* key, bool first = false) {
        if (!first) out += ", ";
        aj::append_json_quoted(out, key);
        out += ": ";
      };
      field("panel", true);
      aj::append_json_quoted(out, r.panel);
      field("workload");
      aj::append_json_quoted(out, r.workload);
      field("strategy");
      aj::append_json_quoted(out, r.strategy);
      field("warm_epoch_time_s");
      out += strf("%.9g", r.warm_epoch_time_s);
      field("speedup_vs_baseline");
      out += strf("%.9g", r.speedup_vs_baseline);
      field("hit_ratio");
      out += strf("%.9g", r.hit_ratio);
      field("imbalanced_fraction");
      out += strf("%.9g", r.imbalanced_fraction);
      field("gpu_utilization");
      out += strf("%.9g", r.gpu_utilization);
      field("samples_per_s");
      out += strf("%.9g", r.samples_per_s);
      out += '}';
    }
    out += records_.empty() ? "]\n}\n" : "\n  ]\n}\n";
    std::ofstream file(path_);
    if (!file) {
      std::fprintf(stderr, "warning: cannot write metrics json %s\n", path_.c_str());
      return;
    }
    file << out;
    std::printf("(metrics json written to %s)\n", path_.c_str());
  }

  MetricsJson(const MetricsJson&) = delete;
  MetricsJson& operator=(const MetricsJson&) = delete;

 private:
  std::string path_;
  std::string bench_;
  std::string schema_;
  std::vector<MetricsRecord> records_;
  std::vector<std::pair<std::string, double>> scalars_;
};

inline void print_header(const std::string& title, const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

/// Prints the table and, when `csv_dir` is configured, also writes
/// `<csv_dir>/<name>.csv`.
inline void emit(const Config& config, const std::string& name, const Table& table) {
  std::printf("%s\n", table.render_text().c_str());
  const std::string csv_dir = config.get_string("csv_dir", "");
  if (csv_dir.empty()) return;
  std::filesystem::create_directories(csv_dir);
  const std::string path = csv_dir + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << table.render_csv();
  std::printf("(csv written to %s)\n\n", path.c_str());
}

inline void warn_unconsumed(const Config& config) {
  (void)config.get_string("csv_dir", "");  // always legal
  for (const auto& key : config.unconsumed()) {
    std::fprintf(stderr, "warning: unknown option '%s'\n", key.c_str());
  }
}

}  // namespace lobster::bench
