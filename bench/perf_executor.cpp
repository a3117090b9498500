// Executor hot-path performance harness (perf-regression baseline).
//
// The planner's thread-count model T_l(α)/T_r(β)/T_PFS(γ) (§4.3) assumes the
// online executor's drain machinery is free — that adding loading threads
// buys throughput instead of lock contention. This harness measures exactly
// that: for each total loading-thread count it builds a single-node plan,
// runs one cold pass (PFS tier: payload materialization + resident-set
// inserts) and repeated warm passes (local tier: pure claim / classify /
// accounting overhead), and reports drain throughput in samples/s. Per-tier
// fetch latency (resident-set probe, KV-store hit, PFS materialization) is
// micro-measured separately.
//
// Results are emitted as a `lobster.bench_metrics.v1` JSON so CI can diff
// them (`BENCH_executor.json`); see EXPERIMENTS.md "Executor perf harness".
//
//   $ ./perf_executor [gpus=4] [batch=64] [iters=40] [bytes=4096]
//       [repeats=3] [verify=0] --metrics-json BENCH_executor.json
#include <chrono>
#include <cstdio>
#include <limits>

#include <sys/resource.h>

#include "bench_common.hpp"
#include "cache/kv_store.hpp"
#include "common/table.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"

using namespace lobster;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU time (user + system) consumed so far. The scaling sweep
/// measures thread efficiency as samples per CPU-second, which is
/// core-count-independent: wall-clock speedup on an N-core box equals
/// N x (CPU efficiency ratio) as long as the threads stay runnable.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

/// min(1, t_train x iters / virtual_total): the modeled fraction of the run
/// the (virtual) GPUs spent training rather than stalled on loading.
double modeled_gpu_utilization(double t_train, std::uint32_t iters,
                               const lobster::runtime::ExecutionReport& report) {
  if (report.virtual_total <= 0.0) return 0.0;
  const double busy = t_train * static_cast<double>(iters) / report.virtual_total;
  return busy < 1.0 ? busy : 1.0;
}

/// Single-node plan: `iters` iterations, `total_threads` loading threads
/// spread over the GPUs, one preprocessing thread, no cache
/// maintenance — every cycle goes to the drain path under test.
runtime::Plan make_plan(std::uint16_t gpus, std::uint32_t iters, std::uint32_t batch,
                        std::uint32_t total_threads, std::uint64_t seed) {
  runtime::Plan plan;
  plan.cluster_nodes = 1;
  plan.gpus_per_node = gpus;
  plan.epochs = 1;
  plan.iterations_per_epoch = iters;
  plan.batch_size = batch;
  plan.seed = seed;
  plan.iterations.reserve(iters);
  for (IterId i = 0; i < iters; ++i) {
    runtime::IterationPlan iteration;
    iteration.iter = i;
    iteration.nodes.resize(1);
    auto& node = iteration.nodes[0];
    node.preproc_threads = 1;
    node.load_threads.assign(gpus, total_threads / gpus);
    for (std::uint16_t g = 0; g < total_threads % gpus; ++g) ++node.load_threads[g];
    plan.iterations.push_back(std::move(iteration));
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_args(argc, argv);
  const bench::TraceSession trace_session(config);
  bench::MetricsJson metrics(config, "perf_executor");
  const auto gpus = static_cast<std::uint16_t>(config.get_int("gpus", 4));
  const auto batch = static_cast<std::uint32_t>(config.get_int("batch", 64));
  const auto iters = static_cast<std::uint32_t>(config.get_int("iters", 40));
  const auto bytes = static_cast<Bytes>(config.get_int("bytes", 4096));
  const auto repeats = static_cast<int>(config.get_int("repeats", 3));
  const bool verify = config.get_bool("verify", false);
  bench::warn_unconsumed(config);

  bench::print_header(
      "perf_executor: online-executor drain throughput vs loading threads",
      "§4.2-4.3 premise — loading threads buy throughput, not lock contention");

  // Dataset sized so the sampler's epoch exactly covers the plan.
  const std::uint32_t num_samples = batch * gpus * iters;
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(num_samples, bytes), 42);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = num_samples;
  sampler_config.nodes = 1;
  sampler_config.gpus_per_node = gpus;
  sampler_config.batch_size = batch;
  sampler_config.seed = 42;
  const data::EpochSampler sampler(sampler_config);

  const std::string workload =
      strf("gpus=%u batch=%u iters=%u bytes=%llu", gpus, batch, iters,
           static_cast<unsigned long long>(bytes));
  Table table({"threads", "cold_samples_per_s", "warm_samples_per_s", "warm_wall_ms"});
  double warm_t1 = 0.0;
  double warm_t8 = 0.0;
  double cold_best = 0.0;

  for (const std::uint32_t threads : {1U, 2U, 4U, 8U, 16U}) {
    const auto plan = make_plan(gpus, iters, batch, threads, 42);
    runtime::ExecutorConfig executor_config;
    executor_config.node = 0;
    executor_config.verify_payloads = verify;
    runtime::PlanExecutor executor(executor_config, catalog, sampler, plan);

    // Cold pass: nothing resident, everything goes through the PFS path.
    const auto cold_start = Clock::now();
    const auto cold_report = executor.run();
    const double cold_s = seconds_since(cold_start);

    // Warm passes: the whole epoch is resident, so the drain path is pure
    // claim + classify + accounting — the contention-sensitive regime.
    double warm_s = std::numeric_limits<double>::infinity();
    std::uint64_t warm_samples = 0;
    double warm_util = 0.0;
    for (int r = 0; r < repeats; ++r) {
      const auto warm_start = Clock::now();
      const auto warm_report = executor.run();
      warm_s = std::min(warm_s, seconds_since(warm_start));
      warm_samples = warm_report.samples_delivered;
      warm_util = modeled_gpu_utilization(executor_config.t_train, iters, warm_report);
      if (!warm_report.clean()) {
        std::fprintf(stderr, "error: warm run not clean at threads=%u\n", threads);
        return 1;
      }
    }
    const double cold_rate = static_cast<double>(cold_report.samples_delivered) / cold_s;
    const double warm_rate = static_cast<double>(warm_samples) / warm_s;
    if (threads == 1) warm_t1 = warm_rate;
    if (threads == 8) warm_t8 = warm_rate;
    cold_best = std::max(cold_best, cold_rate);
    table.add_row({std::to_string(threads), Table::num(cold_rate, 0), Table::num(warm_rate, 0),
                   Table::num(warm_s * 1e3, 2)});

    bench::MetricsRecord record;
    record.panel = "drain_warm";
    record.workload = workload;
    record.strategy = strf("threads=%02u", threads);
    record.warm_epoch_time_s = warm_s;
    record.hit_ratio = 1.0;
    record.gpu_utilization = warm_util;
    record.samples_per_s = warm_rate;
    metrics.add(record);
    record.panel = "drain_cold";
    record.warm_epoch_time_s = cold_s;
    record.hit_ratio = 0.0;
    record.gpu_utilization =
        modeled_gpu_utilization(executor_config.t_train, iters, cold_report);
    record.samples_per_s = cold_rate;
    metrics.add(record);
  }
  bench::emit(config, "perf_executor", table);
  std::printf("warm drain at 8 threads: %.0f samples/s (%.2fx the 1-thread rate)\n\n", warm_t8,
              warm_t1 > 0.0 ? warm_t8 / warm_t1 : 0.0);

  // ---- drain_scaling: CPU-efficiency scaling sweep. Wall-clock scaling is
  // whatever the host's core count makes it (this box may have ONE core, on
  // which N threads can never beat 1 in wall time). So the sweep pins the
  // loading pool to exactly `threads` OS threads, measures process CPU time
  // across the warm drain, and projects throughput as
  //   threads x samples / cpu_s
  // — what an N-core host would sustain if per-thread efficiency holds. A
  // contention-free drain keeps samples/cpu_s flat as threads grow, so the
  // projected ratio approaches N; lock convoys or cache-line ping-pong burn
  // CPU without delivering samples and drag the ratio down. CI gates on the
  // projected t8/t1 ratio (EXPERIMENTS.md "drain_scaling").
  Table scaling({"threads", "warm_wall_ms", "warm_cpu_ms", "cpu_samples_per_s",
                 "projected_samples_per_s"});
  double projected_t1 = 0.0;
  double projected_t8 = 0.0;
  for (const std::uint32_t threads : {1U, 2U, 4U, 8U}) {
    const auto plan = make_plan(gpus, iters, batch, threads, 42);
    runtime::ExecutorConfig executor_config;
    executor_config.node = 0;
    executor_config.verify_payloads = verify;
    executor_config.balance.max_pool_threads = threads;  // force real OS threads
    runtime::PlanExecutor executor(executor_config, catalog, sampler, plan);
    (void)executor.run();  // cold pass: make the epoch resident

    double warm_s = std::numeric_limits<double>::infinity();
    double cpu_s = std::numeric_limits<double>::infinity();
    std::uint64_t warm_samples = 0;
    double warm_util = 0.0;
    for (int r = 0; r < repeats; ++r) {
      const double cpu_start = process_cpu_seconds();
      const auto warm_start = Clock::now();
      const auto warm_report = executor.run();
      warm_s = std::min(warm_s, seconds_since(warm_start));
      cpu_s = std::min(cpu_s, process_cpu_seconds() - cpu_start);
      warm_samples = warm_report.samples_delivered;
      warm_util = modeled_gpu_utilization(executor_config.t_train, iters, warm_report);
      if (!warm_report.clean()) {
        std::fprintf(stderr, "error: scaling run not clean at threads=%u\n", threads);
        return 1;
      }
    }
    const double cpu_rate =
        cpu_s > 0.0 ? static_cast<double>(warm_samples) / cpu_s : 0.0;
    const double projected = static_cast<double>(threads) * cpu_rate;
    if (threads == 1) projected_t1 = projected;
    if (threads == 8) projected_t8 = projected;
    scaling.add_row({std::to_string(threads), Table::num(warm_s * 1e3, 2),
                     Table::num(cpu_s * 1e3, 2), Table::num(cpu_rate, 0),
                     Table::num(projected, 0)});

    bench::MetricsRecord record;
    record.panel = "drain_scaling";
    record.workload = workload;
    record.strategy = strf("threads=%02u", threads);
    record.warm_epoch_time_s = warm_s;
    record.hit_ratio = 1.0;
    record.gpu_utilization = warm_util;
    record.samples_per_s = projected;
    record.speedup_vs_baseline = projected_t1 > 0.0 ? projected / projected_t1 : 1.0;
    metrics.add(record);
    metrics.set_scalar(strf("drain_warm_cpu_samples_per_s_t%u", threads), cpu_rate);
  }
  bench::emit(config, "perf_executor_scaling", scaling);
  std::printf(
      "projected warm drain at 8 threads: %.0f samples/s (%.2fx the 1-thread projection)\n\n",
      projected_t8, projected_t1 > 0.0 ? projected_t8 / projected_t1 : 0.0);

  // ---- per-tier fetch latency (single-threaded micro-measurements).
  const int micro_ops = static_cast<int>(config.get_int("micro_ops", 4000));

  // Local tier: the residency probe every claimed sample performs.
  const auto probe_plan = make_plan(gpus, iters, batch, 4, 42);
  runtime::ExecutorConfig probe_config;
  probe_config.verify_payloads = false;
  runtime::PlanExecutor probe_executor(probe_config, catalog, sampler, probe_plan);
  (void)probe_executor.run();  // make the epoch resident
  auto start = Clock::now();
  std::uint64_t probe_hits = 0;
  for (int i = 0; i < micro_ops; ++i) {
    if (probe_executor.has_sample(static_cast<SampleId>(i) % num_samples)) ++probe_hits;
  }
  const double local_ns = seconds_since(start) * 1e9 / micro_ops;

  // Remote KV tier: hit latency of the cluster KV store.
  cache::KvStore kv(16);
  for (int i = 0; i < micro_ops; ++i) {
    const auto s = static_cast<SampleId>(i);
    kv.put(s, runtime::make_sample_payload(s, bytes));
  }
  start = Clock::now();
  std::uint64_t kv_hits = 0;
  for (int i = 0; i < micro_ops; ++i) {
    if (auto payload = kv.get(static_cast<SampleId>(i))) ++kv_hits;
  }
  const double kv_ns = seconds_since(start) * 1e9 / micro_ops;

  // PFS tier: payload materialization.
  start = Clock::now();
  std::uint64_t pfs_bytes = 0;
  for (int i = 0; i < micro_ops; ++i) {
    pfs_bytes += runtime::make_sample_payload(static_cast<SampleId>(i), bytes).size();
  }
  const double pfs_ns = seconds_since(start) * 1e9 / micro_ops;

  Table tiers({"tier", "op", "ns_per_op"});
  tiers.add_row({"local", "resident-set probe", Table::num(local_ns, 1)});
  tiers.add_row({"remote-kv", "KvStore::get hit", Table::num(kv_ns, 1)});
  tiers.add_row({"pfs", "payload materialize", Table::num(pfs_ns, 1)});
  bench::emit(config, "perf_executor_tiers", tiers);
  if (probe_hits != static_cast<std::uint64_t>(micro_ops) ||
      kv_hits != static_cast<std::uint64_t>(micro_ops) || pfs_bytes == 0) {
    std::fprintf(stderr, "error: tier micro-measurements missed (%llu/%llu hits)\n",
                 static_cast<unsigned long long>(probe_hits),
                 static_cast<unsigned long long>(kv_hits));
    return 1;
  }

  metrics.set_scalar("drain_warm_samples_per_s_t1", warm_t1);
  metrics.set_scalar("drain_warm_samples_per_s_t8", warm_t8);
  // Core-count-independent scaling scalars (the CI perf-smoke gate input):
  // projected = threads x samples/cpu_s, see the drain_scaling sweep above.
  metrics.set_scalar("drain_warm_projected_samples_per_s_t1", projected_t1);
  metrics.set_scalar("drain_warm_projected_samples_per_s_t8", projected_t8);
  metrics.set_scalar("drain_scaling_warm_x8",
                     projected_t1 > 0.0 ? projected_t8 / projected_t1 : 0.0);
  metrics.set_scalar("drain_cold_best_samples_per_s", cold_best);
  // Frozen reference: the best cold drain rate of the pre-arena, pre-batching
  // executor measured on the same reference box (see EXPERIMENTS.md). The CI
  // gate checks best/baseline >= 2.0.
  metrics.set_scalar("drain_cold_seed_baseline_samples_per_s", 249322.0);
  metrics.set_scalar("tier_local_probe_ns", local_ns);
  metrics.set_scalar("tier_kv_get_ns", kv_ns);
  metrics.set_scalar("tier_pfs_materialize_ns", pfs_ns);
  return 0;
}
