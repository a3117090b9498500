// Chaos soak: a multi-epoch 4-node run under composed faults — node death
// followed by rejoin, delivery-delay jitter, and a low rate of payload
// corruption — with the full self-healing stack engaged (DESIGN.md §9
// "Recovery model"): corruption quarantine, circuit breakers, degraded
// routing, the RecoveryManager's inventory-probe rejoin and background
// re-replication, and the iteration watchdog.
//
// The same cluster runs twice, fault-free and under chaos, and the harness
// exits non-zero unless:
//   * delivery stays exactly-once (no lost, duplicated, or failed payloads),
//   * zero corrupt payloads are *delivered* (every one quarantined),
//   * the dead node rejoins and the post-rejoin remote-hit ratio recovers
//     to >= 80% of the pre-fault ratio,
//   * modeled slowdown stays within 2x of the fault-free run.
//
// Results are emitted as a `lobster.bench_metrics.v1` JSON so CI can
// schema-check and archive them (`BENCH_chaos.json`); see EXPERIMENTS.md
// "Chaos soak".
//
// Every run records causal spans (DESIGN.md §11): the chaos pass is
// re-analysed in-process with analyze_spans, gating that each degraded
// fetch is one well-formed span tree, that some re-route stitches a serve
// span on another rank under its attempt, and that the span-level
// attribution (timeout / detour / PFS buckets, union-merged per
// iteration) explains the measured degraded-iteration wall overhead. With
// `incident_dir=<dir>` the monitor's flight recorder (plus a watchdog-stall
// hook) dumps incident bundles, and the harness requires at least one.
//
//   $ ./chaos_soak [nodes=4] [gpus=2] [epochs=3] [iters=8] [batch=16]
//       [bytes=2048] [victim=2] [kill_at=6] [revive_at=12]
//       [spans=chaos_spans.jsonl] [events=chaos_events.jsonl]
//       [incident_dir=incidents] [incident_force=1]
//       --metrics-json BENCH_chaos.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/kv_store.hpp"
#include "comm/fault.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "runtime/local_cluster.hpp"
#include "runtime/recovery.hpp"
#include "runtime/watchdog.hpp"
#include "telemetry/analysis/span_analysis.hpp"

using namespace lobster;

namespace {

using Clock = std::chrono::steady_clock;

struct ChaosShape {
  std::uint16_t nodes = 4;
  std::uint16_t gpus = 2;
  std::uint32_t epochs = 3;
  std::uint32_t iters = 8;  // per epoch
  std::uint32_t batch = 16;
  Bytes bytes = 2048;
  comm::Rank victim = 2;
  IterId kill_at = 6;
  IterId revive_at = 12;

  std::uint32_t total_iters() const { return epochs * iters; }
};

/// Rank 0 runs the plan; ranks 1..nodes-1 serve. Ownership maps every
/// sample to a serving rank (never rank 0), so the whole demand stream is
/// remote traffic and the remote-hit ratio is a clean recovery signal.
comm::Rank owner_of(SampleId s, const ChaosShape& shape) {
  return static_cast<comm::Rank>(1 + (s % (shape.nodes - 1U)));
}

/// Only the victim's even samples have a replica (on the highest rank).
/// The odd ones are sole-holder samples: while the victim is dead they
/// detour to the PFS until background re-replication re-homes them — which
/// is exactly the gap the soak measures.
bool replicated(SampleId s, const ChaosShape& shape) {
  return owner_of(s, shape) == shape.victim && (s % 2 == 0);
}

runtime::Plan make_plan(const ChaosShape& shape, const data::EpochSampler& sampler) {
  runtime::Plan plan = runtime::uniform_plan(shape.nodes, shape.gpus, shape.epochs,
                                             shape.iters, shape.batch, 7);
  // Evict each iteration's minibatch right after delivery: every epoch
  // re-fetches remotely instead of going resident after epoch 0, so the
  // remote tier stays under load for the whole soak.
  for (auto& iteration : plan.iterations) {
    const auto epoch = static_cast<std::uint32_t>(iteration.iter / shape.iters);
    const auto h = static_cast<std::uint32_t>(iteration.iter % shape.iters);
    auto& node0 = iteration.nodes[0];
    for (GpuId g = 0; g < shape.gpus; ++g) {
      for (const SampleId s : sampler.minibatch(epoch, h, 0, g)) {
        node0.evictions.push_back(s);
      }
    }
  }
  return plan;
}

struct SoakOutcome {
  runtime::ExecutionReport report;
  double wall_s = 0.0;
  std::uint64_t corrupt_replies = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t corrupted_messages = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t watchdog_stalls = 0;
  runtime::RecoveryStats recovery;
  std::vector<telemetry::TraceEvent> span_records;
  telemetry::analysis::SpanAnalysis spans;
};

/// Wall overhead the degraded iterations actually cost: their measured
/// iteration wall time minus the median wall time of the healthy ones.
/// This is what the span-level attribution must explain.
double measured_degraded_overhead_s(const runtime::ExecutionReport& report,
                                    const std::map<std::uint64_t, double>& degraded_iters) {
  std::vector<double> healthy;
  for (const auto& iteration : report.iterations) {
    if (degraded_iters.find(iteration.iter) == degraded_iters.end()) {
      healthy.push_back(iteration.wall_s);
    }
  }
  if (healthy.empty() || degraded_iters.empty()) return 0.0;
  const auto mid = healthy.begin() + static_cast<std::ptrdiff_t>(healthy.size() / 2);
  std::nth_element(healthy.begin(), mid, healthy.end());
  const double median = *mid;
  double overhead = 0.0;
  for (const auto& iteration : report.iterations) {
    if (degraded_iters.find(iteration.iter) != degraded_iters.end()) {
      overhead += std::max(0.0, iteration.wall_s - median);
    }
  }
  return overhead;
}

double remote_ratio(const runtime::ExecutionReport& report, IterId first, IterId last) {
  std::uint64_t remote = 0;
  std::uint64_t pfs = 0;
  for (const auto& iteration : report.iterations) {
    if (iteration.iter < first || iteration.iter > last) continue;
    remote += iteration.remote_fetches;
    pfs += iteration.pfs_fetches;
  }
  const auto total = remote + pfs;
  return total > 0 ? static_cast<double>(remote) / static_cast<double>(total) : 0.0;
}

SoakOutcome run_soak(const ChaosShape& shape, bool chaos,
                     telemetry::FlightRecorder* recorder) {
  // Each pass gets a fresh span/event window so the chaos analysis is not
  // polluted by the fault-free warm-up's traces.
  telemetry::Tracer::instance().reset();
  telemetry::EventLog::instance().clear();
  const std::uint32_t num_samples = shape.nodes * shape.iters * shape.gpus * shape.batch;
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(num_samples, shape.bytes), 7);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = num_samples;
  sampler_config.nodes = shape.nodes;
  sampler_config.gpus_per_node = shape.gpus;
  sampler_config.batch_size = shape.batch;
  sampler_config.seed = 7;
  const data::EpochSampler sampler(sampler_config);
  const runtime::Plan plan = make_plan(shape, sampler);
  const auto backup = static_cast<std::uint16_t>(shape.nodes - 1);

  comm::FaultPlan fault(shape.nodes);
  if (chaos) {
    // Composed faults: the victim dies and later rejoins; rank 1's fabric
    // jitters (well under the fetch timeout); 2% of the backup's replies
    // arrive corrupted.
    fault.spec(shape.victim).kill_at_iter = shape.kill_at;
    fault.spec(shape.victim).revive_at_iter = shape.revive_at;
    fault.spec(1).delay_s = 0.0005;
    fault.spec(1).delay_jitter_s = 0.001;
    fault.spec(backup).corrupt_fraction = 0.02;
  }

  const auto sizes = [&catalog](SampleId s) { return catalog.sample_bytes(s); };
  runtime::FetchPolicy policy;
  policy.timeout = 0.05;
  policy.max_retries = 1;
  policy.backoff_base = 0.005;
  policy.backoff_cap = 0.02;
  policy.breaker_threshold = 1;    // first timeout declares the peer dead
  policy.breaker_cooldown = 600.0; // rejoin goes through the inventory probe
  runtime::LocalCluster cluster(catalog, sampler, plan, policy);
  cluster.bus().set_fault_plan(&fault);
  cache::CacheDirectory& directory = cluster.directory();
  for (SampleId s = 0; s < catalog.size(); ++s) {
    directory.add(s, owner_of(s, shape));
    if (replicated(s, shape)) directory.add(s, backup);
  }

  runtime::ExecutorConfig config;
  config.balance.max_pool_threads = 4;
  config.verify_payloads = true;
  config.iteration_hook = [&fault](IterId iter, const core::IterationFeedback&,
                                   core::RebalancePlan&) {
    fault.on_iteration(iter);
    // Pace the soak so the recovery thread's probes and the re-replication
    // batches genuinely overlap the run instead of racing a sprint.
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  };
  runtime::PlanExecutor& executor = cluster.execute(0, config);
  for (std::uint16_t r = 1; r < shape.nodes; ++r) {
    const auto holds = [r, &shape, backup](SampleId s) {
      return owner_of(s, shape) == r || (r == backup && replicated(s, shape));
    };
    // Every peer serves its inventory so a rejoin can replay residency.
    cluster.serve(r, holds).set_inventory_source([holds, num_samples] {
      std::vector<SampleId> samples;
      for (SampleId s = 0; s < num_samples; ++s) {
        if (holds(s)) samples.push_back(s);
      }
      return samples;
    });
  }
  runtime::DistributionManager& client = cluster.manager(0);

  cache::KvStore kv(16);
  ThreadPool replication_pool(1);
  runtime::RecoveryPolicy recovery_policy;
  recovery_policy.poll_interval = 0.01;
  runtime::RecoveryManager recovery(directory, client, sizes, recovery_policy);
  recovery.set_kv_store(&kv);
  recovery.set_replication_pool(&replication_pool);
  client.set_on_breaker_close([&recovery](comm::Rank rank) { recovery.notify_peer(rank); });

  runtime::WatchdogConfig watchdog_config;
  watchdog_config.multiplier = 2.0;
  watchdog_config.min_deadline = 0.04;
  runtime::IterationWatchdog watchdog(watchdog_config);
  if (recorder != nullptr) {
    // A stall dumps the flight recorder immediately, while the rings still
    // hold the spans of the iteration that blew its deadline.
    watchdog.set_on_stall(
        [recorder](IterId, Seconds) { recorder->trigger("watchdog_stall"); });
  }
  executor.set_kv_store(&kv);
  executor.set_watchdog(&watchdog);

  watchdog.start();
  recovery.start();
  SoakOutcome outcome;
  const auto start = Clock::now();
  outcome.report = std::move(cluster.run()[0]);
  outcome.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  recovery.stop();
  watchdog.stop();

  outcome.corrupt_replies = client.corrupt_replies();
  outcome.breaker_opens = client.breaker_opens();
  outcome.corrupted_messages = fault.corrupted_messages();
  outcome.dropped_messages = fault.dropped_messages();
  outcome.watchdog_stalls = watchdog.stalls();
  outcome.recovery = recovery.stats();
  outcome.span_records = telemetry::Tracer::instance().snapshot().spans;
  outcome.spans = telemetry::analysis::analyze_spans(outcome.span_records);
  return outcome;
}

bench::MetricsRecord record_for(const std::string& workload, const char* strategy,
                                const SoakOutcome& outcome) {
  bench::MetricsRecord record;
  record.panel = "chaos_soak";
  record.workload = workload;
  record.strategy = strategy;
  record.warm_epoch_time_s = outcome.report.virtual_total;
  record.samples_per_s =
      outcome.wall_s > 0.0
          ? static_cast<double>(outcome.report.samples_delivered) / outcome.wall_s
          : 0.0;
  // The soak runs at the executor's default t_train.
  bench::fill_executor_shares(record, {outcome.report}, runtime::ExecutorConfig{}.t_train);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_args(argc, argv);
  bench::TraceSession trace_session(config);
  bench::MetricsJson metrics(config, "chaos_soak");
  ChaosShape shape;
  shape.nodes = static_cast<std::uint16_t>(config.get_int("nodes", 4));
  shape.gpus = static_cast<std::uint16_t>(config.get_int("gpus", 2));
  shape.epochs = static_cast<std::uint32_t>(config.get_int("epochs", 3));
  shape.iters = static_cast<std::uint32_t>(config.get_int("iters", 8));
  shape.batch = static_cast<std::uint32_t>(config.get_int("batch", 16));
  shape.bytes = static_cast<Bytes>(config.get_int("bytes", 2048));
  shape.victim = static_cast<comm::Rank>(config.get_int("victim", 2));
  shape.kill_at = static_cast<IterId>(config.get_int("kill_at", 6));
  shape.revive_at = static_cast<IterId>(config.get_int("revive_at", 12));
  bench::warn_unconsumed(config);

  if (shape.nodes < 3 || shape.victim == 0 || shape.victim >= shape.nodes ||
      shape.victim == shape.nodes - 1U) {
    std::fprintf(stderr,
                 "error: need nodes>=3 and 0 < victim < nodes-1 (rank 0 runs the "
                 "plan, the highest rank holds the replicas)\n");
    return 2;
  }
  if (!(shape.kill_at < shape.revive_at &&
        shape.revive_at + 6 <= shape.total_iters())) {
    std::fprintf(stderr,
                 "error: need kill_at < revive_at and >=6 iterations after the "
                 "revive to measure the post-rejoin window\n");
    return 2;
  }

  bench::print_header(
      "chaos_soak: kill->rejoin + jitter + corruption under the self-healing runtime",
      "DESIGN.md §9 — quarantine, rejoin, re-replication and the watchdog, end to end");
  std::printf("cluster: %u nodes x %u gpus, %u epochs x %u iters, batch %u, %llu B "
              "samples; kill node %u at iter %llu, revive at iter %llu\n\n",
              shape.nodes, shape.gpus, shape.epochs, shape.iters, shape.batch,
              static_cast<unsigned long long>(shape.bytes), shape.victim,
              static_cast<unsigned long long>(shape.kill_at),
              static_cast<unsigned long long>(shape.revive_at));

  // The soak always records causal spans + events: the invariants below
  // gate on the stitched span trees, not only on counters. TraceSession may
  // already have armed these (spans=/events=/incident_dir= options); arming
  // twice is harmless.
  telemetry::Tracer::instance().set_enabled(true);
  telemetry::EventLog::instance().set_enabled(true);
  telemetry::FlightRecorder* recorder = trace_session.flight_recorder();

  const auto baseline = run_soak(shape, /*chaos=*/false, recorder);
  const auto chaotic = run_soak(shape, /*chaos=*/true, recorder);

  const IterId last = shape.total_iters() - 1;
  const double pre_ratio = remote_ratio(chaotic.report, 0, shape.kill_at - 1);
  const double fault_ratio = remote_ratio(chaotic.report, shape.kill_at, shape.revive_at - 1);
  const double post_ratio = remote_ratio(chaotic.report, last - 5, last);
  const double recovery_frac = pre_ratio > 0.0 ? post_ratio / pre_ratio : 0.0;
  const double slowdown = baseline.report.virtual_total > 0.0
                              ? chaotic.report.virtual_total / baseline.report.virtual_total
                              : 0.0;

  const std::string workload =
      strf("nodes=%u gpus=%u epochs=%u iters=%u batch=%u bytes=%llu victim=%u "
           "kill_at=%llu revive_at=%llu",
           shape.nodes, shape.gpus, shape.epochs, shape.iters, shape.batch,
           static_cast<unsigned long long>(shape.bytes), shape.victim,
           static_cast<unsigned long long>(shape.kill_at),
           static_cast<unsigned long long>(shape.revive_at));

  Table table({"run", "delivered", "quarantined", "degraded", "rejoins", "replicated",
               "stalls", "virtual_s", "clean"});
  const auto add_row = [&table](const char* name, const SoakOutcome& outcome) {
    const auto& report = outcome.report;
    table.add_row({name, std::to_string(report.samples_delivered),
                   std::to_string(report.quarantined_payloads),
                   std::to_string(report.degraded_fetches),
                   std::to_string(outcome.recovery.rejoins),
                   std::to_string(outcome.recovery.replicated_samples),
                   std::to_string(outcome.watchdog_stalls),
                   Table::num(report.virtual_total, 4), report.clean() ? "yes" : "NO"});
  };
  add_row("fault-free", baseline);
  add_row("chaos", chaotic);
  bench::emit(config, "chaos_soak", table);

  std::printf("remote-hit ratio: pre-fault %.3f, fault window %.3f, post-rejoin %.3f "
              "(recovered %.0f%% of pre-fault)\n",
              pre_ratio, fault_ratio, post_ratio, recovery_frac * 100.0);
  std::printf("chaos injected: %llu corrupted, %llu dropped message(s); detected "
              "%llu corrupt replies, %llu breaker open(s), %llu watchdog stall(s)\n\n",
              static_cast<unsigned long long>(chaotic.corrupted_messages),
              static_cast<unsigned long long>(chaotic.dropped_messages),
              static_cast<unsigned long long>(chaotic.corrupt_replies),
              static_cast<unsigned long long>(chaotic.breaker_opens),
              static_cast<unsigned long long>(chaotic.watchdog_stalls));

  // ---- causal span analysis of the chaos pass (DESIGN.md §11).
  const auto& spans = chaotic.spans;
  const double union_s = spans.union_overhead_us / 1e6;
  const double measured_s =
      measured_degraded_overhead_s(chaotic.report, spans.iteration_overhead_us);
  const double attribution_ratio = measured_s > 0.0 ? union_s / measured_s : 0.0;
  std::size_t degraded_well_formed = 0;
  for (const auto& trace : spans.traces) {
    if (trace.degraded && trace.root_kind == telemetry::SpanKind::kFetch && trace.well_formed) {
      ++degraded_well_formed;
    }
  }
  bench::emit(config, "chaos_fetch_latency", telemetry::analysis::fetch_latency_table(spans));
  bench::emit(config, "chaos_attribution", telemetry::analysis::span_attribution_table(spans));
  bench::emit(config, "chaos_slowest_traces",
              telemetry::analysis::slowest_traces_table(spans, chaotic.span_records, 5));
  std::printf("span trees: %zu fetches (%zu degraded, %zu stitched, %zu malformed); "
              "attribution union %.1f ms vs measured degraded overhead %.1f ms "
              "(ratio %.2f)\n",
              spans.fetch_traces, spans.degraded_fetches, spans.cross_rank_fetches,
              spans.malformed_traces, union_s * 1e3, measured_s * 1e3, attribution_ratio);
  if (recorder != nullptr) {
    std::printf("flight recorder: %llu bundle(s) written, %llu trigger(s) suppressed\n",
                static_cast<unsigned long long>(recorder->bundles_written()),
                static_cast<unsigned long long>(recorder->triggers_suppressed()));
  }
  std::printf("\n");

  metrics.add(record_for(workload, "fault_free", baseline));
  metrics.add(record_for(workload, "chaos", chaotic));
  metrics.set_scalar("slowdown_vs_fault_free", slowdown);
  metrics.set_scalar("pre_fault_remote_hit_ratio", pre_ratio);
  metrics.set_scalar("fault_window_remote_hit_ratio", fault_ratio);
  metrics.set_scalar("post_rejoin_remote_hit_ratio", post_ratio);
  metrics.set_scalar("remote_hit_recovery_frac", recovery_frac);
  metrics.set_scalar("corrupted_messages", static_cast<double>(chaotic.corrupted_messages));
  metrics.set_scalar("corrupt_replies", static_cast<double>(chaotic.corrupt_replies));
  metrics.set_scalar("quarantined_payloads",
                     static_cast<double>(chaotic.report.quarantined_payloads));
  metrics.set_scalar("payload_failures", static_cast<double>(chaotic.report.payload_failures));
  metrics.set_scalar("lost_deliveries", static_cast<double>(chaotic.report.lost_deliveries));
  metrics.set_scalar("duplicate_deliveries",
                     static_cast<double>(chaotic.report.duplicate_deliveries));
  metrics.set_scalar("degraded_fetches", static_cast<double>(chaotic.report.degraded_fetches));
  metrics.set_scalar("rejoins", static_cast<double>(chaotic.recovery.rejoins));
  metrics.set_scalar("inventory_samples_restored",
                     static_cast<double>(chaotic.recovery.inventory_samples_restored));
  metrics.set_scalar("replicated_samples",
                     static_cast<double>(chaotic.recovery.replicated_samples));
  metrics.set_scalar("watchdog_stalls", static_cast<double>(chaotic.watchdog_stalls));
  metrics.set_scalar("span_total", static_cast<double>(spans.total_spans));
  metrics.set_scalar("span_fetch_traces", static_cast<double>(spans.fetch_traces));
  metrics.set_scalar("span_degraded_fetches", static_cast<double>(spans.degraded_fetches));
  metrics.set_scalar("span_cross_rank_fetches",
                     static_cast<double>(spans.cross_rank_fetches));
  metrics.set_scalar("span_malformed_traces", static_cast<double>(spans.malformed_traces));
  metrics.set_scalar("attribution_timeout_s", spans.timeout_us / 1e6);
  metrics.set_scalar("attribution_detour_s", spans.detour_us / 1e6);
  metrics.set_scalar("attribution_pfs_s", spans.pfs_us / 1e6);
  metrics.set_scalar("attribution_union_s", union_s);
  metrics.set_scalar("measured_degraded_overhead_s", measured_s);
  metrics.set_scalar("attribution_ratio", attribution_ratio);
  metrics.set_scalar("incident_bundles",
                     recorder != nullptr
                         ? static_cast<double>(recorder->bundles_written())
                         : 0.0);

  // ---- invariants (the CI gate).
  bool ok = true;
  const auto require = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  require(baseline.report.clean(), "fault-free run must be clean");
  require(baseline.report.quarantined_payloads == 0,
          "fault-free run must not quarantine anything");
  require(chaotic.report.payload_failures == 0,
          "zero corrupt payloads may be delivered (exactly-once, verified)");
  require(chaotic.report.lost_deliveries == 0, "no delivery may be lost");
  require(chaotic.report.duplicate_deliveries == 0, "no delivery may duplicate");
  require(chaotic.report.samples_delivered == baseline.report.samples_delivered,
          "every planned sample must still be delivered");
  require(chaotic.corrupted_messages > 0, "chaos must actually corrupt messages");
  require(chaotic.report.quarantined_payloads > 0,
          "corruption must be detected and quarantined, not absorbed");
  require(chaotic.recovery.rejoins >= 1, "the revived node must rejoin the cluster");
  require(chaotic.recovery.replicated_samples > 0,
          "sole-holder samples must be re-replicated while the node is down");
  require(recovery_frac >= 0.8,
          "post-rejoin remote-hit ratio must recover to >=80% of pre-fault");
  require(chaotic.report.virtual_total <= 2.0 * baseline.report.virtual_total,
          "modeled slowdown must stay within 2x of the fault-free run");

  // ---- causal-tracing invariants (DESIGN.md §11).
  require(baseline.spans.degraded_fetches == 0,
          "fault-free run must not record degraded fetch traces");
  require(spans.fetch_traces > 0, "chaos run must record fetch span trees");
  require(spans.malformed_traces == 0,
          "every span tree must be well-formed (one root, parents resolve)");
  require(spans.degraded_fetches > 0, "chaos must produce degraded fetch traces");
  require(degraded_well_formed == spans.degraded_fetches,
          "every degraded fetch must resolve to one well-formed span tree");
  // Stitched: some re-route attempt has a serve child on another rank.
  require(spans.cross_rank_fetches > 0,
          "detoured fetches must stitch serve spans across ranks");
  require(union_s > 0.0, "degraded traces must carry attributable wasted time");
  if (measured_s >= 0.05) {
    // Only meaningful when the degraded iterations cost real wall time;
    // below that, scheduler noise dominates the measurement.
    require(attribution_ratio >= 0.5 && attribution_ratio <= 1.6,
            "span attribution must explain the measured degraded-iteration overhead");
  }
  if (recorder != nullptr) {
    require(recorder->bundles_written() >= 1,
            "an incident_dir run must dump at least one flight-recorder bundle");
  }
  if (ok) std::printf("all chaos-soak invariants hold\n");
  return ok ? 0 : 1;
}
