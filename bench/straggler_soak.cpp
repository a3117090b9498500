// Straggler soak: a 4-node online run where one node thermally throttles
// mid-run, executed twice — with the static Eq. 2-3 split and with the
// heterogeneity-aware feedback balancer closing the loop (DESIGN.md §12).
//
// Every node runs a real PlanExecutor in its own thread. The straggler's
// ExecutorConfig carries a sim::CapacityProfile::thermal_throttle schedule,
// so its virtual-time tier and preprocessing rates ramp down exactly as a
// throttled node's would. The balanced run wires a RebalanceBarrier into
// every node's iteration hook: per iteration the nodes exchange measured
// per-GPU throughput, and the FeedbackBalancer re-splits the global batch
// quota and the loading-thread budget (EWMA history + hysteresis +
// damping). The soak gates on the headline claim: the balancer must cut
// the cluster's imbalanced-iteration fraction at least 2x vs the static
// split, with bounded quota churn and exactly-once delivery intact.
//
// Results are emitted as a `lobster.bench_metrics.v1` JSON so CI can
// schema-check and gate them (`BENCH_straggler.json`); see EXPERIMENTS.md
// "Straggler soak".
//
//   $ ./straggler_soak [nodes=4] [gpus=2] [iters=48] [batch=16] [bytes=65536]
//       [throttle_at=8] [ramp=4] [floor=0.45] --metrics-json BENCH_straggler.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/feedback_balancer.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "runtime/local_cluster.hpp"
#include "sim/capacity_profile.hpp"

using namespace lobster;

namespace {

using Clock = std::chrono::steady_clock;

/// Training time per iteration: I/O-bound on purpose, so imbalance is visible.
constexpr Seconds kTrainS = 1e-4;

struct ClusterShape {
  std::uint16_t nodes = 4;
  std::uint16_t gpus = 2;
  std::uint32_t iters = 48;
  std::uint32_t batch = 16;  ///< per-GPU minibatch
  Bytes bytes = 65536;
  double throttle_at = 8.0;  ///< iteration the straggler starts throttling
  double ramp = 4.0;         ///< iterations between throttle steps
  double floor_scale = 0.45; ///< terminal capacity of the straggler

  std::uint32_t world() const { return static_cast<std::uint32_t>(nodes) * gpus; }
  std::uint32_t global_batch() const { return batch * world(); }
  std::uint16_t straggler() const { return static_cast<std::uint16_t>(nodes - 1); }
};

core::LoadBalanceConfig balancer_knobs(const ClusterShape& shape) {
  core::LoadBalanceConfig knobs;
  knobs.world_size = shape.world();
  knobs.batch_size = shape.global_batch();
  // Per-node loading budget matching the static plan (2 threads per GPU),
  // so both runs drive the same thread totals and only the split differs.
  knobs.total_load_threads = 2U * shape.gpus;
  return knobs;
}

struct RunOutcome {
  std::vector<runtime::ExecutionReport> reports;  ///< per node
  double wall_s = 0.0;
  // Balanced-run controller stats (zero for the static run).
  std::uint64_t rebalances = 0;
  std::uint64_t quota_moves = 0;
  std::uint64_t tail_quota_moves = 0;  ///< moves in the last quarter of the run
  std::uint64_t slow_node_events = 0;
  std::vector<std::uint32_t> final_quotas;
};

/// Runs all nodes concurrently, each with its own executor over one shared
/// catalog and sampler (the sampler's permutation cache is mutex-guarded).
/// The straggler node carries the thermal-throttle capacity schedule. When
/// `balanced` is set, every node's iteration hook joins the shared
/// RebalanceBarrier exchange and applies the resulting quota plan.
RunOutcome run_cluster(const ClusterShape& shape, bool balanced) {
  const runtime::Plan plan =
      runtime::uniform_plan(shape.nodes, shape.gpus, 1, shape.iters, shape.batch, 11);
  const std::uint32_t num_samples = shape.iters * shape.global_batch();
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(num_samples, shape.bytes),
                                    plan.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = num_samples;
  sampler_config.nodes = shape.nodes;
  sampler_config.gpus_per_node = shape.gpus;
  sampler_config.batch_size = shape.batch;
  sampler_config.seed = 11;
  const data::EpochSampler sampler(sampler_config);

  std::unique_ptr<core::FeedbackBalancer> balancer;
  std::unique_ptr<core::RebalanceBarrier> barrier;
  if (balanced) {
    core::BalancerOptions options;
    options.gpus_per_node = shape.gpus;
    // The virtual-time workload is deterministic, so track aggressively: a
    // fast EWMA and a tight deadband reach the proportional split within a
    // couple of iterations of each throttle step (the no-oscillation gate
    // below still holds the tail churn to zero).
    options.ewma_alpha = 0.5;
    options.hysteresis = 0.02;
    balancer = std::make_unique<core::FeedbackBalancer>(balancer_knobs(shape), options);
    barrier = std::make_unique<core::RebalanceBarrier>(*balancer, shape.nodes);
  }

  runtime::LocalCluster cluster(catalog, sampler, plan);
  for (std::uint16_t n = 0; n < shape.nodes; ++n) {
    runtime::ExecutorConfig config;
    config.balance.max_pool_threads = 2U * shape.gpus;
    config.t_train = kTrainS;
    config.verify_payloads = true;
    if (n == shape.straggler()) {
      config.capacity = sim::CapacityProfile::thermal_throttle(shape.throttle_at, shape.ramp,
                                                               shape.floor_scale);
    }
    if (balanced) {
      config.iteration_hook = [&barrier, n](IterId iter, const core::IterationFeedback& feedback,
                                            core::RebalancePlan& rebalance) {
        rebalance = barrier->exchange(iter, n, feedback);
      };
    }
    cluster.execute(n, config);
  }

  RunOutcome outcome;
  const auto start = Clock::now();
  outcome.reports = cluster.run();
  outcome.wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  if (balanced) {
    outcome.rebalances = balancer->rebalances();
    outcome.quota_moves = balancer->quota_moves();
    outcome.slow_node_events = balancer->slow_node_events();
    outcome.final_quotas = balancer->current_quotas();
    const auto trace = balancer->quota_trace();
    const std::size_t tail_start = trace.size() - std::min<std::size_t>(trace.size(),
                                                                       shape.iters / 4);
    for (std::size_t i = tail_start; i < trace.size(); ++i) {
      outcome.tail_quota_moves += trace[i].quota_moves;
    }
  }
  return outcome;
}

/// Fraction of iterations whose cross-node virtual-duration spread exceeds
/// `threshold` of the slowest node — the cluster-level analogue of
/// RunMetrics::imbalanced_fraction, computed from real executor runs.
double imbalanced_fraction(const RunOutcome& outcome, double threshold) {
  const std::size_t iters = outcome.reports.empty() ? 0 : outcome.reports[0].iterations.size();
  if (iters == 0) return 0.0;
  std::size_t imbalanced = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    double slowest = 0.0;
    double fastest = std::numeric_limits<double>::max();
    for (const auto& report : outcome.reports) {
      const double duration = report.iterations[i].virtual_duration;
      slowest = std::max(slowest, duration);
      fastest = std::min(fastest, duration);
    }
    if (slowest > 0.0 && slowest - fastest > threshold * slowest) ++imbalanced;
  }
  return static_cast<double>(imbalanced) / static_cast<double>(iters);
}

std::uint64_t delivered_total(const RunOutcome& outcome) {
  std::uint64_t total = 0;
  for (const auto& report : outcome.reports) total += report.samples_delivered;
  return total;
}

bool all_clean(const RunOutcome& outcome) {
  for (const auto& report : outcome.reports) {
    if (!report.clean()) return false;
  }
  return true;
}

double virtual_total_max(const RunOutcome& outcome) {
  double worst = 0.0;
  for (const auto& report : outcome.reports) worst = std::max(worst, report.virtual_total);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_args(argc, argv);
  const bench::TraceSession trace_session(config);
  bench::MetricsJson metrics(config, "straggler_soak");
  ClusterShape shape;
  shape.nodes = static_cast<std::uint16_t>(config.get_int("nodes", 4));
  shape.gpus = static_cast<std::uint16_t>(config.get_int("gpus", 2));
  shape.iters = static_cast<std::uint32_t>(config.get_int("iters", 48));
  shape.batch = static_cast<std::uint32_t>(config.get_int("batch", 16));
  shape.bytes = static_cast<Bytes>(config.get_int("bytes", 65536));
  shape.throttle_at = config.get_double("throttle_at", 8.0);
  shape.ramp = config.get_double("ramp", 4.0);
  shape.floor_scale = config.get_double("floor", 0.45);
  bench::warn_unconsumed(config);

  if (shape.nodes < 2 || shape.gpus == 0 || shape.iters < 8 ||
      shape.throttle_at + 2.0 * shape.ramp >= shape.iters) {
    std::fprintf(stderr, "error: need nodes>=2, gpus>=1, iters>=8 and the full "
                         "throttle ramp (throttle_at + 2*ramp) inside the run\n");
    return 2;
  }

  bench::print_header(
      "straggler_soak: thermal throttle mid-run, feedback balancer vs static split",
      "DESIGN.md §12 — EWMA quota re-splitting must cut imbalanced iterations >= 2x");
  std::printf("cluster: %u nodes x %u gpus, %u iters x batch %u (global %u), %llu B "
              "samples; node %u throttles %.2g -> %.2g -> %.2g starting at iteration "
              "%.4g (ramp %.4g)\n\n",
              shape.nodes, shape.gpus, shape.iters, shape.batch, shape.global_batch(),
              static_cast<unsigned long long>(shape.bytes), shape.straggler(), 0.85, 0.65,
              shape.floor_scale, shape.throttle_at, shape.ramp);

  const auto static_run = run_cluster(shape, /*balanced=*/false);
  const auto balanced_run = run_cluster(shape, /*balanced=*/true);

  constexpr double kGapThreshold = 0.10;  // the paper's 10% imbalance bar
  const double static_frac = imbalanced_fraction(static_run, kGapThreshold);
  const double balanced_frac = imbalanced_fraction(balanced_run, kGapThreshold);
  // Floor at half an iteration so the CI ratio gate never divides by zero
  // when the balanced run has no imbalanced iteration at all.
  const double balanced_frac_floored =
      std::max(balanced_frac, 0.5 / static_cast<double>(shape.iters));
  const double ratio = static_frac / balanced_frac_floored;

  const std::string workload =
      strf("nodes=%u gpus=%u iters=%u batch=%u bytes=%llu throttle_at=%.4g ramp=%.4g "
           "floor=%.2g",
           shape.nodes, shape.gpus, shape.iters, shape.batch,
           static_cast<unsigned long long>(shape.bytes), shape.throttle_at, shape.ramp,
           shape.floor_scale);

  Table table({"run", "delivered", "imbalanced_frac", "virtual_s", "rebalances",
               "quota_moves", "wall_ms", "clean"});
  table.add_row({"static", std::to_string(delivered_total(static_run)),
                 Table::num(static_frac, 3), Table::num(virtual_total_max(static_run), 4),
                 "0", "0", Table::num(static_run.wall_s * 1e3, 1),
                 all_clean(static_run) ? "yes" : "NO"});
  table.add_row({"balanced", std::to_string(delivered_total(balanced_run)),
                 Table::num(balanced_frac, 3), Table::num(virtual_total_max(balanced_run), 4),
                 std::to_string(balanced_run.rebalances),
                 std::to_string(balanced_run.quota_moves),
                 Table::num(balanced_run.wall_s * 1e3, 1),
                 all_clean(balanced_run) ? "yes" : "NO"});
  bench::emit(config, "straggler_soak", table);

  std::string quotas;
  for (const std::uint32_t q : balanced_run.final_quotas) {
    if (!quotas.empty()) quotas += ' ';
    quotas += std::to_string(q);
  }
  std::printf("imbalanced fraction: static %.3f vs balanced %.3f (%.2fx cut); final "
              "quotas [%s]; %llu slow-node event(s)\n\n",
              static_frac, balanced_frac, ratio, quotas.c_str(),
              static_cast<unsigned long long>(balanced_run.slow_node_events));

  bench::MetricsRecord static_record;
  static_record.panel = "straggler_soak";
  static_record.workload = workload;
  static_record.strategy = "static";
  static_record.warm_epoch_time_s = virtual_total_max(static_run);
  static_record.imbalanced_fraction = static_frac;
  static_record.samples_per_s =
      static_run.wall_s > 0.0 ? delivered_total(static_run) / static_run.wall_s : 0.0;
  bench::fill_executor_shares(static_record, static_run.reports, kTrainS);
  metrics.add(static_record);
  bench::MetricsRecord balanced_record = static_record;
  balanced_record.strategy = "balanced";
  balanced_record.warm_epoch_time_s = virtual_total_max(balanced_run);
  balanced_record.imbalanced_fraction = balanced_frac;
  balanced_record.samples_per_s =
      balanced_run.wall_s > 0.0 ? delivered_total(balanced_run) / balanced_run.wall_s : 0.0;
  bench::fill_executor_shares(balanced_record, balanced_run.reports, kTrainS);
  balanced_record.speedup_vs_baseline =
      balanced_record.warm_epoch_time_s > 0.0
          ? static_record.warm_epoch_time_s / balanced_record.warm_epoch_time_s
          : 0.0;
  metrics.add(balanced_record);

  metrics.set_scalar("static_imbalanced_fraction", std::max(static_frac, 1e-9));
  metrics.set_scalar("balanced_imbalanced_fraction", balanced_frac_floored);
  metrics.set_scalar("imbalance_cut_ratio", ratio);
  metrics.set_scalar("rebalances", static_cast<double>(balanced_run.rebalances));
  metrics.set_scalar("quota_moves", static_cast<double>(balanced_run.quota_moves));
  metrics.set_scalar("tail_quota_moves", static_cast<double>(balanced_run.tail_quota_moves));
  metrics.set_scalar("slow_node_events", static_cast<double>(balanced_run.slow_node_events));

  // ---- invariants (the CI gate).
  bool ok = true;
  const auto require = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  const std::uint64_t expected =
      static_cast<std::uint64_t>(shape.iters) * shape.global_batch();
  require(all_clean(static_run), "static run must deliver exactly once on every node");
  require(all_clean(balanced_run), "balanced run must deliver exactly once on every node");
  require(delivered_total(static_run) == expected,
          "static run must deliver every planned sample");
  require(delivered_total(balanced_run) == expected,
          "quota re-splitting must not lose or duplicate a single sample cluster-wide");
  require(static_frac > 0.0, "the throttle must visibly imbalance the static run");
  require(ratio >= 2.0,
          "the balancer must cut the imbalanced fraction at least 2x vs static");
  require(balanced_run.rebalances > 0, "the balancer must actually rebalance");
  require(balanced_run.slow_node_events >= 1,
          "the throttled node must be detected as slow");
  require(balanced_run.tail_quota_moves <= 2ULL * shape.world(),
          "quotas must settle: tail churn bounded (no oscillation)");
  if (!balanced_run.final_quotas.empty()) {
    const std::uint32_t straggler_quota =
        balanced_run.final_quotas[shape.straggler() * shape.gpus] +
        balanced_run.final_quotas[shape.straggler() * shape.gpus + shape.gpus - 1];
    require(straggler_quota < 2U * shape.batch,
            "the straggler must end with less than its static share");
  }
  if (ok) std::printf("all straggler-soak invariants hold\n");
  return ok ? 0 : 1;
}
