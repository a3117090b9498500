// Shared declarations of the repository benchmark (README.md): the workload
// interface, the layer timing table and the trace analysis.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time (user + system) of the whole process, all threads.
double process_cpu_seconds();

/// q-quantile (0..1) of `values` by linear interpolation; 0 when empty.
double quantile(std::vector<double> values, double q);

/// One timed pass of a workload: everything its metrics are computed from.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t delivered = 0;  ///< samples delivered to GPUs (all nodes, all jobs)
  std::uint64_t attempted = 0;  ///< planned deliveries, or jobs for the cluster workload
  std::uint64_t failed = 0;     ///< attempted units whose correctness check failed
  std::vector<double> iter_ms;      ///< hook-to-hook wall time of every iteration
  std::vector<double> body_ms;      ///< IterationExecution::wall_s of every iteration
  std::vector<double> boundary_ms;  ///< iter_ms - body_ms: time outside the body
  /// Named per-layer values of this pass (counts, virtual metrics, ratios),
  /// keyed by their BENCHMARK.json per_layer names.
  std::map<std::string, double> values;
};

/// A workload owns its inputs (built from the seed in the constructor, which
/// is the timed set-up) and replays one identical pass per run_pass() call.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual PassResult run_pass() = 0;
  /// Shape, pool caps and thread counts, for the context stamp.
  virtual std::string context() const = 0;
  /// True when the workload runs PlanExecutor (iteration metrics apply).
  virtual bool executor_workload() const { return true; }
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);
const std::vector<std::string>& workload_names();

/// One row of the layer timing table: a public call timed in isolation.
struct LayerRow {
  std::string name;   ///< per_layer metric name
  std::string unit;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t reps = 0;
  std::string workload;  ///< the workload whose end-to-end metric it should move
  std::string moves;     ///< those end-to-end metrics
};

/// Times every public call of the layer table; fixtures come from `seed`.
/// Throws std::runtime_error when a timed call returns a wrong result.
std::vector<LayerRow> measure_layers(std::uint64_t seed);

/// Wall-clock span aggregates of one traced pass.
struct TraceSummary {
  std::map<std::string, double> self_ms;   ///< span name -> summed self time
  std::map<std::string, double> total_ms;  ///< span name -> summed duration
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
};

/// Self time of every complete span (its duration minus its direct
/// children on the same thread), summed per span name.
TraceSummary summarize_trace(const lobster::telemetry::TraceSnapshot& snapshot);

/// Declares `var`, a span around a call into a layer (recorded only while
/// tracing is on).
#define PERFBENCH_SPAN(var, literal)                                            \
  const ::lobster::telemetry::ScopedSpan var {                                  \
    ::lobster::telemetry::Category::kBench, LOBSTER_TRACE_NAME_ID(literal)      \
  }

}  // namespace perfbench
