// Repository benchmark binary (README.md). Runs one workload for a fixed
// wall-clock budget, checks every pass, and prints the report; the last
// stdout line is the JSON result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 they are the per-layer set: workload metrics from untraced
// passes, phase self times from traced passes, and the layer timing table.
//
//   $ perfbench --workload warm_local --seed 42 --seconds 10 --trace 0
//       [--commit <id>]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/strfmt.hpp"
#include "perfbench.hpp"
#include "telemetry/analysis/json.hpp"

using lobster::strf;

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::uint64_t kHeldOutSeed = 1013;
constexpr int kSetups = 5;             // set-up repetitions; setup_s is their median
constexpr std::size_t kMinPasses = 3;  // per phase, even past the time budget
constexpr std::size_t kMaxTracedPasses = 6;  // bounds per-thread trace ring memory
constexpr std::size_t kTraceRingEvents = std::size_t{1} << 15;

// Workload bits for MetricDef::applies.
constexpr unsigned kW1 = 1, kW2 = 2, kW3 = 4, kW4 = 8;
constexpr unsigned kExecutors = kW1 | kW2 | kW3, kAll = kExecutors | kW4;

/// One metric as BENCHMARK.json names it. `unit` carries the clock
/// (-wall, -virtual, -cpu) where the value is a time or a time-derived ratio.
struct MetricDef {
  const char* name;
  const char* unit;
  unsigned applies;  ///< workloads it is measured on (bits in workload_names() order)
  bool exact;        ///< a count or virtual value: checked for exact repeats
};

constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "1/s-wall", kAll, false},
    {"cpu_ns_per_sample", "ns-cpu", kAll, false},
    {"setup_s", "s", kAll, false},
    {"peak_rss_mb", "MB", kAll, false},
};

constexpr MetricDef kPerLayer[] = {
    // Workload-specific end-to-end metrics (untraced passes of the traced run).
    {"iter_ms_p50", "ms-wall", kExecutors, false},
    {"iter_ms_p99", "ms-wall", kExecutors, false},
    {"failed_share", "ratio", kAll, false},
    {"degraded_share", "ratio", kW2 | kW3, true},
    {"virtual_epoch_s", "s-virtual", kExecutors, true},
    {"imbalanced_fraction", "ratio-virtual", kW2 | kW3, true},
    {"demand_hit_ratio", "ratio", kW3, true},
    {"pfs_read_share", "ratio", kW2 | kW3 | kW4, true},
    {"makespan_s", "s-virtual", kW4, true},
    {"slowdown_p95", "x-virtual", kW4, true},
    // runtime: executor reports (per pass, all executing nodes).
    {"runtime.executor.demand", "count", kExecutors, true},
    {"runtime.executor.local_hits", "count", kExecutors, true},
    {"runtime.executor.remote_fetches", "count", kExecutors, true},
    {"runtime.executor.pfs_fetches", "count", kExecutors, true},
    {"runtime.executor.prefetch_requests", "count", kExecutors, true},
    {"runtime.executor.spilled_requests", "count", kExecutors, true},
    {"runtime.executor.degraded_fetches", "count", kExecutors, true},
    {"runtime.executor.iter_body_ms", "ms-wall", kExecutors, false},
    {"runtime.executor.boundary_ms", "ms-wall", kExecutors, false},
    // runtime: executor phase self time per iteration (traced passes).
    {"runtime.executor.resize_pools_ms", "ms-wall", kExecutors, false},
    {"runtime.executor.enqueue_ms", "ms-wall", kExecutors, false},
    {"runtime.executor.drain_ms", "ms-wall", kExecutors, false},
    {"runtime.executor.preproc_ms", "ms-wall", kExecutors, false},
    {"runtime.executor.cache_maintenance_ms", "ms-wall", kExecutors, false},
    {"runtime.executor.composition_residual", "ratio-wall", kExecutors, false},
    // comm, distribution manager and arena counters (per pass).
    {"comm.slow_path_sends", "count", kW2 | kW3, true},
    {"runtime.dm.served", "count", kW2 | kW3, true},
    {"runtime.dm.failed", "count", kW2 | kW3, true},
    {"runtime.dm.retries", "count", kW2 | kW3, true},
    {"runtime.dm.timeouts", "count", kW2 | kW3, true},
    {"runtime.dm.breaker_opens", "count", kW2 | kW3, true},
    {"common.arena_reuse_ratio", "ratio", kW2 | kW3, false},
    // Layer timing table (measured on every workload's traced run).
    {"data.minibatch_us", "us-wall", kAll, false},
    {"cache.probe_ns", "ns-wall", kAll, false},
    {"runtime.payload.materialize_ns", "ns-wall", kAll, false},
    {"runtime.payload.verify_ns", "ns-wall", kAll, false},
    {"cache.peer_holder_ns", "ns-wall", kAll, false},
    {"common.arena_acquire_ns", "ns-wall", kAll, false},
    {"comm.lane_rtt_us", "us-wall", kAll, false},
    {"runtime.dm.multi_get_us", "us-wall", kAll, false},
    {"runtime.dm.fetch_remote_us", "us-wall", kAll, false},
    {"cache.kv_put_ns", "ns-wall", kAll, false},
    {"cache.kv_get_ns", "ns-wall", kAll, false},
    {"cluster.checkpoint_encode_us", "us-wall", kAll, false},
    {"cluster.checkpoint_decode_us", "us-wall", kAll, false},
    {"pipeline.plan_s", "s-wall", kAll, false},
    {"pipeline.predicted_hit_ratio", "ratio-virtual", kAll, false},
    // cluster: ClusterResult of each run.
    {"cluster.run_s", "s-wall", kW4, false},
    {"cluster.rounds", "count", kW4, true},
    {"cluster.preemptions", "count", kW4, true},
    {"cluster.resumes", "count", kW4, true},
    {"cluster.checkpoints_cut", "count", kW4, true},
    {"cluster.checkpoint_bytes", "bytes", kW4, true},
    {"cluster.residency_restored", "count", kW4, true},
    {"cluster.residency_lost", "count", kW4, true},
    {"cluster.arbiter_evictions", "count", kW4, true},
    {"cluster.kv_hit_ratio", "ratio", kW4, true},
    // telemetry: cost and completeness of tracing.
    {"telemetry.trace_overhead", "ratio-wall", kAll, false},
    {"telemetry.trace_events", "count", kAll, false},
    {"telemetry.trace_dropped", "count", kAll, false},
};

const char* clock_of(const MetricDef& def) {
  const std::string unit = def.unit;
  if (unit.ends_with("-virtual")) return "virtual";
  if (unit.ends_with("-cpu")) return "cpu";
  if (unit.ends_with("-wall") || unit == "s") return "wall";
  return "none";
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// What the traced passes of a --trace 1 run add up to.
struct TracedPasses {
  TraceSummary spans;
  std::vector<double> rate;
  double iterations = 0.0;
  double iter_ms = 0.0;
  double boundary_ms = 0.0;
};

void print_json_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<std::pair<const MetricDef*, double>>& metrics) {
  std::string out = strf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                         correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                         static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    if (i > 0) out += ", ";
    lobster::telemetry::analysis::append_json_quoted(out, def->name);
    const double finite = std::isfinite(value) ? value : 0.0;
    out += strf(": {\"value\": %.17g, \"unit\": ", finite);
    lobster::telemetry::analysis::append_json_quoted(out, def->unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  const auto& names = workload_names();
  const auto found = std::find(names.begin(), names.end(), args.workload);
  if (found == names.end()) throw std::invalid_argument("unknown workload " + args.workload);
  const unsigned bit = 1U << static_cast<unsigned>(found - names.begin());

  // ---- set-up, repeated; the last instance is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    const auto start = Clock::now();
    workload = make_workload(args.workload, args.seed);
    setup_s.push_back(seconds_since(start));
  }

  // ---- passes. Untraced passes give every end-to-end number. With --trace,
  // a traced pass follows each untraced one (up to kMaxTracedPasses), so
  // drift in the machine's speed hits both sides of the overhead alike.
  auto& tracer = lobster::telemetry::Tracer::instance();
  tracer.set_buffer_capacity(kTraceRingEvents);
  std::vector<PassResult> passes;
  TracedPasses traced;
  std::uint64_t attempted = 0, failed = 0;
  const auto start = Clock::now();
  while (passes.size() < kMinPasses || seconds_since(start) < args.seconds) {
    passes.push_back(workload->run_pass());
    if (!args.trace || traced.rate.size() >= kMaxTracedPasses) continue;
    tracer.reset();
    tracer.set_enabled(true);
    const PassResult pass = workload->run_pass();
    tracer.set_enabled(false);
    const TraceSummary summary = summarize_trace(tracer.snapshot());
    for (const auto& [name, ms] : summary.self_ms) traced.spans.self_ms[name] += ms;
    for (const auto& [name, ms] : summary.total_ms) traced.spans.total_ms[name] += ms;
    traced.spans.emitted += summary.emitted;
    traced.spans.dropped += summary.dropped;
    traced.rate.push_back(static_cast<double>(pass.delivered) / pass.wall_s);
    traced.iterations += static_cast<double>(pass.iter_ms.size());
    for (const double ms : pass.iter_ms) traced.iter_ms += ms;
    for (const double ms : pass.boundary_ms) traced.boundary_ms += ms;
    attempted += pass.attempted;
    failed += pass.failed;
  }
  tracer.reset();
  const double rss_mb = peak_rss_mb();

  std::vector<double> rate, cpu_ns, iter_ms, body_ms, boundary_ms;
  for (const auto& pass : passes) {
    attempted += pass.attempted;
    failed += pass.failed;
    rate.push_back(static_cast<double>(pass.delivered) / pass.wall_s);
    cpu_ns.push_back(pass.cpu_s * 1e9 / static_cast<double>(pass.delivered));
    iter_ms.insert(iter_ms.end(), pass.iter_ms.begin(), pass.iter_ms.end());
    body_ms.insert(body_ms.end(), pass.body_ms.begin(), pass.body_ms.end());
    boundary_ms.insert(boundary_ms.end(), pass.boundary_ms.begin(), pass.boundary_ms.end());
  }
  std::map<std::string, double> value;  // every metric that applies here
  value["samples_per_s"] = median(rate);
  value["cpu_ns_per_sample"] = median(cpu_ns);
  value["setup_s"] = median(setup_s);
  value["peak_rss_mb"] = rss_mb;
  if (workload->executor_workload()) {
    value["iter_ms_p50"] = quantile(iter_ms, 0.50);
    value["iter_ms_p99"] = quantile(iter_ms, 0.99);
    value["runtime.executor.iter_body_ms"] = median(body_ms);
    value["runtime.executor.boundary_ms"] = median(boundary_ms);
  }
  // Per-pass values: the median, plus whether every pass agreed exactly.
  std::map<std::string, std::pair<double, double>> pass_range;
  for (const auto& [name, first] : passes.front().values) {
    std::vector<double> series;
    for (const auto& pass : passes) series.push_back(pass.values.at(name));
    value[name] = median(series);
    pass_range[name] = {*std::min_element(series.begin(), series.end()),
                        *std::max_element(series.begin(), series.end())};
  }

  // ---- trace analysis, then the layer timing table (untraced).
  std::vector<LayerRow> layers;
  const bool trace_complete = traced.spans.dropped == 0;
  if (args.trace) {
    value["telemetry.trace_overhead"] = 1.0 - median(traced.rate) / value["samples_per_s"];
    value["telemetry.trace_events"] = static_cast<double>(traced.spans.emitted);
    value["telemetry.trace_dropped"] = static_cast<double>(traced.spans.dropped);
    if (workload->executor_workload()) {
      double explained = traced.boundary_ms;
      for (const char* phase : {"resize_pools", "enqueue", "drain", "preproc", "cache_maintenance"}) {
        const double ms = traced.spans.self_ms[phase];
        explained += ms;
        value[strf("runtime.executor.%s_ms", phase)] = ms / traced.iterations;
      }
      value["runtime.executor.composition_residual"] = 1.0 - explained / traced.iter_ms;
    }

    std::printf("\nspan self time over %zu traced passes (wall ms, summed over threads):\n",
                traced.rate.size());
    std::printf("  %-36s %12s %12s\n", "span", "self_ms", "total_ms");
    for (const auto& [name, ms] : traced.spans.self_ms) {
      std::printf("  %-36s %12.3f %12.3f\n", name.c_str(), ms, traced.spans.total_ms[name]);
    }
    std::printf("trace: %llu events emitted, %llu dropped -> %s\n",
                static_cast<unsigned long long>(traced.spans.emitted),
                static_cast<unsigned long long>(traced.spans.dropped),
                trace_complete ? "complete" : "INCOMPLETE: traced numbers are partial");

    layers = measure_layers(args.seed);
    for (const auto& row : layers) value[row.name] = row.median;
  }
  value["failed_share"] = attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                                        : 0.0;

  // ---- report ---------------------------------------------------------------
  std::printf("\ncontext: workload=%s seed=%llu (default %llu, held-out %llu) seconds=%.3g "
              "trace=%d nproc=%u build=%s commit=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed), args.seconds, args.trace ? 1 : 0,
              std::max(1U, std::thread::hardware_concurrency()), PERFBENCH_BUILD_TYPE,
              args.commit.c_str());
  std::printf("context: %s\n", workload->context().c_str());
  std::printf("context: %d set-ups, %zu untraced passes, %zu iteration samples\n", kSetups,
              passes.size(), iter_ms.size());
  std::printf("context: samples_per_s over the passes: q1 %.6g, median %.6g, q3 %.6g\n",
              quantile(rate, 0.25), quantile(rate, 0.5), quantile(rate, 0.75));

  std::printf("\nmetrics (%s):\n", args.trace ? "per-layer run" : "end-to-end, untraced");
  std::printf("  %-40s %16s %-14s %-8s %s\n", "name", "value", "unit", "clock", "exact");
  const auto print_row = [&](const MetricDef& def) {
    if ((def.applies & bit) == 0 || value.count(def.name) == 0) return;
    std::string exact = "-";
    if (const auto range = pass_range.find(def.name); range != pass_range.end() && def.exact) {
      const auto [lo, hi] = range->second;
      exact = lo == hi ? "exact" : strf("NOT EXACT (%.6g..%.6g)", lo, hi);
    }
    std::printf("  %-40s %16.6g %-14s %-8s %s\n", def.name, value[def.name], def.unit,
                clock_of(def), exact.c_str());
  };
  for (const auto& def : kEndToEnd) print_row(def);
  for (const auto& def : kPerLayer) print_row(def);

  if (!layers.empty()) {
    std::printf("\nlayer timing table (median and quartiles over repetitions):\n");
    std::printf("  %-32s %12s %12s %12s %4s %-14s %-16s %s\n", "call", "median", "q1", "q3", "n",
                "unit", "workload", "should move");
    for (const auto& row : layers) {
      std::printf("  %-32s %12.4g %12.4g %12.4g %4zu %-14s %-16s %s\n", row.name.c_str(),
                  row.median, row.q1, row.q3, row.reps, row.unit.c_str(), row.workload.c_str(),
                  row.moves.c_str());
    }
  }
  if (args.trace && workload->executor_workload()) {
    std::printf("\ncomposition: phases + boundary explain %.1f%% of %.1f ms of iteration wall "
                "time; residual %.1f%%%s\n",
                100.0 * (1.0 - value["runtime.executor.composition_residual"]),
                traced.iter_ms, 100.0 * value["runtime.executor.composition_residual"],
                trace_complete ? "" : " (INCOMPLETE trace)");
  }

  std::vector<std::pair<const MetricDef*, double>> metrics;
  if (args.trace) {
    for (const auto& def : kPerLayer) {
      metrics.emplace_back(&def, (def.applies & bit) != 0 ? value[def.name] : 0.0);
    }
  } else {
    for (const auto& def : kEndToEnd) metrics.emplace_back(&def, value[def.name]);
  }
  const bool correct = failed == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu checks failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
  std::printf("\n");
  print_json_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
