// The four benchmark workloads. Each constructor is the timed set-up; each
// run_pass() replays one identical pass and checks its outputs.
#include <algorithm>
#include <cmath>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <thread>

#include "baselines/strategies.hpp"
#include "cache/directory.hpp"
#include "cluster/cluster_runtime.hpp"
#include "comm/bus.hpp"
#include "common/payload_arena.hpp"
#include "common/strfmt.hpp"
#include "core/planner.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "perfbench.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"

namespace perfbench {

using namespace lobster;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

std::uint32_t nproc() { return std::max(1U, std::thread::hardware_concurrency()); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Iteration-hook recorder for one executor: the wall stamp of every hook
/// call and the per-GPU busy spread of every iteration (from the feedback
/// the next hook call, or last_feedback() at the end, hands back).
class IterationLog {
 public:
  runtime::IterationHook hook() {
    return [this](IterId, const core::IterationFeedback& feedback, core::RebalancePlan&) {
      stamps_.push_back(Clock::now());
      record(feedback);
    };
  }

  void begin(std::size_t iterations) {
    stamps_.clear();
    stamps_.reserve(iterations);
    busy_max_.clear();
    busy_min_.clear();
    busy_max_.reserve(iterations);
    busy_min_.reserve(iterations);
  }

  void end(const runtime::PlanExecutor& executor) {
    end_ = Clock::now();
    record(executor.last_feedback());
  }

  /// Hook-to-hook wall time of iteration i (the last one ends at end()).
  double iter_ms(std::size_t i) const {
    const auto stop = i + 1 < stamps_.size() ? stamps_[i + 1] : end_;
    return std::chrono::duration<double, std::milli>(stop - stamps_[i]).count();
  }
  std::size_t iterations() const { return stamps_.size(); }
  double busy_max(std::size_t i) const { return busy_max_.at(i); }
  double busy_min(std::size_t i) const { return busy_min_.at(i); }

 private:
  void record(const core::IterationFeedback& feedback) {
    if (feedback.devices.empty()) return;
    double hi = 0.0;
    double lo = feedback.devices.front().busy_s;
    for (const auto& device : feedback.devices) {
      hi = std::max(hi, device.busy_s);
      lo = std::min(lo, device.busy_s);
    }
    busy_max_.push_back(hi);
    busy_min_.push_back(lo);
  }

  std::vector<Clock::time_point> stamps_;
  Clock::time_point end_{};
  std::vector<double> busy_max_;
  std::vector<double> busy_min_;
};

/// Deliveries the plan owes `node`: every GPU's minibatch of every iteration.
std::uint64_t planned_deliveries(const data::EpochSampler& sampler, const runtime::Plan& plan,
                                 NodeId node) {
  std::uint64_t total = 0;
  for (const auto& iteration : plan.iterations) {
    const auto epoch = static_cast<std::uint32_t>(iteration.iter / plan.iterations_per_epoch);
    const auto h = static_cast<std::uint32_t>(iteration.iter % plan.iterations_per_epoch);
    for (GpuId g = 0; g < plan.gpus_per_node; ++g) {
      total += sampler.minibatch(epoch, h, node, g).size();
    }
  }
  return total;
}

/// Single-epoch static plan: one loading thread per GPU queue, one
/// preprocessing thread, and (when `evict_batches`) every iteration's batch
/// of `node` evicted at its end so the next pass starts cold again.
runtime::Plan static_plan(const data::EpochSampler& sampler, std::uint16_t nodes,
                          std::uint16_t gpus, std::uint32_t iters, std::uint32_t batch,
                          std::uint64_t seed, bool evict_batches, NodeId node) {
  runtime::Plan plan;
  plan.cluster_nodes = nodes;
  plan.gpus_per_node = gpus;
  plan.epochs = 1;
  plan.iterations_per_epoch = iters;
  plan.batch_size = batch;
  plan.seed = seed;
  plan.iterations.resize(iters);
  for (IterId i = 0; i < iters; ++i) {
    auto& iteration = plan.iterations[i];
    iteration.iter = i;
    iteration.nodes.resize(nodes);
    for (auto& node_plan : iteration.nodes) node_plan.load_threads.assign(gpus, 1);
    if (evict_batches) {
      iteration.nodes[node].evictions =
          sampler.node_batch(0, static_cast<std::uint32_t>(i), node);
    }
  }
  return plan;
}

/// Per-run counter snapshot, differenced around a pass.
struct Counters {
  PayloadArena::Stats arena;
  std::uint64_t slow_path_sends = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t breaker_opens = 0;

  static Counters read(const comm::MessageBus* bus,
                       const std::vector<const runtime::DistributionManager*>& managers) {
    Counters c;
    c.arena = PayloadArena::stats();
    if (bus != nullptr) c.slow_path_sends = bus->slow_path_sends();
    for (const auto* m : managers) {
      c.served += m->served_requests();
      c.failed += m->failed_requests();
      c.retries += m->retries();
      c.timeouts += m->timeouts();
      c.breaker_opens += m->breaker_opens();
    }
    return c;
  }
};

/// Everything one node's executor contributes to a pass.
struct NodeRun {
  runtime::ExecutionReport report;
  const IterationLog* log = nullptr;
  std::uint64_t planned = 0;
  std::uint32_t epochs = 1;
};

/// Folds executor reports, hook logs and counter deltas into a PassResult.
/// The nodes ran the same plan concurrently, so iteration i is cluster-wide
/// imbalanced when the busy spread over every node's GPUs exceeds the
/// simulator's threshold (0.25) of the slowest node's iteration time.
void fold_executor_pass(const std::vector<NodeRun>& nodes, const Counters& before,
                        const Counters& after, PassResult& pass) {
  std::uint64_t demand = 0, local = 0, remote = 0, pfs = 0, prefetch = 0, spilled = 0,
                degraded = 0;
  double virtual_epoch_s = 0.0;
  for (const NodeRun& node : nodes) {
    const auto& report = node.report;
    for (const auto& it : report.iterations) {
      demand += it.demand_requests;
      local += it.local_hits;
      remote += it.remote_fetches;
      pfs += it.pfs_fetches;
      prefetch += it.prefetch_requests;
      spilled += it.spilled_requests;
      degraded += it.degraded_fetches;
    }
    virtual_epoch_s = std::max(virtual_epoch_s, report.virtual_total / node.epochs);
    pass.delivered += report.samples_delivered;
    pass.attempted += node.planned;
    const std::uint64_t mismatch = report.samples_delivered > node.planned
                                       ? report.samples_delivered - node.planned
                                       : node.planned - report.samples_delivered;
    pass.failed += report.payload_failures + report.duplicate_deliveries +
                   report.lost_deliveries + mismatch;
    const IterationLog& log = *node.log;
    if (log.iterations() != report.iterations.size()) {
      throw std::runtime_error("iteration hook saw a different iteration count");
    }
    for (std::size_t i = 0; i < log.iterations(); ++i) {
      const double iter_ms = log.iter_ms(i);
      const double body_ms = report.iterations[i].wall_s * 1e3;
      pass.iter_ms.push_back(iter_ms);
      pass.body_ms.push_back(body_ms);
      pass.boundary_ms.push_back(iter_ms - body_ms);
    }
  }

  const std::size_t iterations = nodes.front().report.iterations.size();
  std::uint64_t imbalanced = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    double hi = 0.0;
    double lo = nodes.front().log->busy_min(i);
    double duration = 0.0;
    for (const NodeRun& node : nodes) {
      hi = std::max(hi, node.log->busy_max(i));
      lo = std::min(lo, node.log->busy_min(i));
      duration = std::max(duration, node.report.iterations[i].virtual_duration);
    }
    if (hi - lo > 0.25 * duration) ++imbalanced;
  }

  auto& v = pass.values;
  v["runtime.executor.demand"] = static_cast<double>(demand);
  v["runtime.executor.local_hits"] = static_cast<double>(local);
  v["runtime.executor.remote_fetches"] = static_cast<double>(remote);
  v["runtime.executor.pfs_fetches"] = static_cast<double>(pfs);
  v["runtime.executor.prefetch_requests"] = static_cast<double>(prefetch);
  v["runtime.executor.spilled_requests"] = static_cast<double>(spilled);
  v["runtime.executor.degraded_fetches"] = static_cast<double>(degraded);
  v["virtual_epoch_s"] = virtual_epoch_s;
  v["imbalanced_fraction"] = ratio(static_cast<double>(imbalanced), static_cast<double>(iterations));
  v["demand_hit_ratio"] = ratio(static_cast<double>(local), static_cast<double>(demand));
  v["pfs_read_share"] = ratio(static_cast<double>(pfs), static_cast<double>(pass.delivered));
  v["degraded_share"] =
      ratio(static_cast<double>(degraded), static_cast<double>(remote + degraded));

  const auto& a0 = before.arena;
  const auto& a1 = after.arena;
  const double reused = static_cast<double>((a1.tls_hits - a0.tls_hits) + (a1.pool_hits - a0.pool_hits));
  const double acquires = reused + static_cast<double>((a1.fresh_allocs - a0.fresh_allocs) +
                                                       (a1.oversize_allocs - a0.oversize_allocs));
  v["common.arena_reuse_ratio"] = ratio(reused, acquires);
  v["comm.slow_path_sends"] = static_cast<double>(after.slow_path_sends - before.slow_path_sends);
  v["runtime.dm.served"] = static_cast<double>(after.served - before.served);
  v["runtime.dm.failed"] = static_cast<double>(after.failed - before.failed);
  v["runtime.dm.retries"] = static_cast<double>(after.retries - before.retries);
  v["runtime.dm.timeouts"] = static_cast<double>(after.timeouts - before.timeouts);
  v["runtime.dm.breaker_opens"] = static_cast<double>(after.breaker_opens - before.breaker_opens);
}

/// Runs `executor` once with its hook log armed; returns the node's share.
NodeRun run_node(runtime::PlanExecutor& executor, IterationLog& log, std::size_t iterations,
                 std::uint64_t planned, std::uint32_t epochs) {
  log.begin(iterations);
  NodeRun node;
  {
    PERFBENCH_SPAN(span, "runtime.PlanExecutor.run");
    node.report = executor.run();
  }
  log.end(executor);
  node.log = &log;
  node.planned = planned;
  node.epochs = epochs;
  return node;
}

// ---- warm_local -----------------------------------------------------------

/// 1 node x 4 GPUs, batch 256, 400 iterations, 4 KiB samples. A cold pass in
/// set-up makes the epoch resident, so every timed request is a local hit and
/// the pass is pure drain machinery (enqueue, classification, queues,
/// dedup, accounting).
class WarmLocal final : public Workload {
 public:
  static constexpr std::uint16_t kGpus = 4;
  static constexpr std::uint32_t kBatch = 256;
  static constexpr std::uint32_t kIters = 400;
  static constexpr Bytes kBytes = 4096;

  explicit WarmLocal(std::uint64_t seed)
      : catalog_(data::DatasetSpec::uniform(kSamples, kBytes), seed),
        sampler_(sampler_config(seed)),
        plan_(static_plan(sampler_, 1, kGpus, kIters, kBatch, seed, false, 0)),
        planned_(planned_deliveries(sampler_, plan_, 0)) {
    runtime::ExecutorConfig config;
    config.node = 0;
    config.balance.max_pool_threads = nproc();
    config.verify_payloads = true;
    config.iteration_hook = log_.hook();
    executor_ = std::make_unique<runtime::PlanExecutor>(config, catalog_, sampler_, plan_);
    log_.begin(kIters);
    const auto cold = executor_->run();
    if (!cold.clean() || cold.samples_delivered != planned_) {
      throw std::runtime_error("warm_local: cold set-up pass failed its checks");
    }
  }

  PassResult run_pass() override {
    PassResult pass;
    const Counters before = Counters::read(nullptr, {});
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    std::vector<NodeRun> nodes;
    nodes.push_back(run_node(*executor_, log_, kIters, planned_, 1));
    pass.wall_s = seconds_since(start);
    pass.cpu_s = process_cpu_seconds() - cpu0;
    fold_executor_pass(nodes, before, Counters::read(nullptr, {}), pass);
    if (pass.values["runtime.executor.local_hits"] != static_cast<double>(planned_)) {
      pass.failed += 1;  // a warm pass must be all local hits
    }
    return pass;
  }

  std::string context() const override {
    return strf("1 node x %u GPUs, batch %u, %u iterations, %llu B samples; loading pool cap "
                "%u (1 planned thread per GPU queue), 1 preprocessing thread",
                kGpus, kBatch, kIters, static_cast<unsigned long long>(kBytes), nproc());
  }

 private:
  static constexpr std::uint32_t kSamples = kGpus * kBatch * kIters;

  static data::SamplerConfig sampler_config(std::uint64_t seed) {
    data::SamplerConfig config;
    config.num_samples = kSamples;
    config.nodes = 1;
    config.gpus_per_node = kGpus;
    config.batch_size = kBatch;
    config.seed = seed;
    return config;
  }

  data::SampleCatalog catalog_;
  data::EpochSampler sampler_;
  runtime::Plan plan_;
  std::uint64_t planned_;
  IterationLog log_;
  std::unique_ptr<runtime::PlanExecutor> executor_;
};

// ---- remote_cold ----------------------------------------------------------

/// 3 nodes x 2 GPUs; rank 0 executes, ranks 1-2 only serve. Batch 64, 200
/// iterations, 16 KiB samples. The directory places 3/4 of the samples on a
/// peer and 1/4 nowhere (PFS); rank 0's plan evicts each iteration's batch,
/// so every pass is cold and residency writes run beside the reads.
class RemoteCold final : public Workload {
 public:
  static constexpr std::uint16_t kNodes = 3;
  static constexpr std::uint16_t kGpus = 2;
  static constexpr std::uint32_t kBatch = 64;
  static constexpr std::uint32_t kIters = 200;
  static constexpr Bytes kBytes = 16 * 1024;
  static constexpr std::uint32_t kPoolCap = 2;

  explicit RemoteCold(std::uint64_t seed)
      : catalog_(data::DatasetSpec::uniform(kSamples, kBytes), seed),
        sampler_(sampler_config(seed)),
        plan_(static_plan(sampler_, kNodes, kGpus, kIters, kBatch, seed, true, 0)),
        planned_(planned_deliveries(sampler_, plan_, 0)),
        owner_(kSamples, 0),
        directory_(kNodes),
        bus_(kNodes) {
    // Seeded placement: 2/8 of the samples nowhere, 3/8 on each peer.
    std::uint64_t state = seed;
    for (SampleId s = 0; s < kSamples; ++s) {
      state += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      const auto bucket = (z ^ (z >> 31)) % 8;
      if (bucket < 2) continue;
      owner_[s] = bucket < 5 ? 1 : 2;
      directory_.add(s, owner_[s]);
    }
    runtime::ExecutorConfig config;
    config.node = 0;
    config.balance.max_pool_threads = kPoolCap;
    config.verify_payloads = true;
    config.iteration_hook = log_.hook();
    executor_ = std::make_unique<runtime::PlanExecutor>(config, catalog_, sampler_, plan_);
    const auto sizes = [this](SampleId s) { return catalog_.sample_bytes(s); };
    client_ = std::make_unique<runtime::DistributionManager>(
        bus_.endpoint(0), [this](SampleId s) { return executor_->has_sample(s); }, sizes);
    for (comm::Rank r = 1; r < kNodes; ++r) {
      peers_.push_back(std::make_unique<runtime::DistributionManager>(
          bus_.endpoint(r), [this, r](SampleId s) { return owner_[s] == r; }, sizes));
      peers_.back()->start();
    }
    executor_->set_manager(client_.get());
    executor_->set_directory(&directory_);
    // Untimed first pass: the payload arena and the lanes reach steady state.
    const PassResult warmup = run_pass();
    if (warmup.failed != 0) throw std::runtime_error("remote_cold: set-up pass failed its checks");
  }

  ~RemoteCold() override {
    for (auto& peer : peers_) peer->stop();
  }

  PassResult run_pass() override {
    PassResult pass;
    const std::vector<const runtime::DistributionManager*> managers = {
        client_.get(), peers_[0].get(), peers_[1].get()};
    const Counters before = Counters::read(&bus_, managers);
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    std::vector<NodeRun> nodes;
    nodes.push_back(run_node(*executor_, log_, kIters, planned_, 1));
    pass.wall_s = seconds_since(start);
    pass.cpu_s = process_cpu_seconds() - cpu0;
    fold_executor_pass(nodes, before, Counters::read(&bus_, managers), pass);
    // Every pass must start and stay cold: no local hits at all.
    if (pass.values["runtime.executor.local_hits"] != 0.0) pass.failed += 1;
    return pass;
  }

  std::string context() const override {
    return strf("%u nodes x %u GPUs (rank 0 executes, ranks 1-%u serve), batch %u, %u "
                "iterations, %llu B samples; loading pool cap %u, %u serving threads",
                kNodes, kGpus, kNodes - 1, kBatch, kIters,
                static_cast<unsigned long long>(kBytes), kPoolCap, kNodes - 1);
  }

 private:
  static constexpr std::uint32_t kSamples = kNodes * kGpus * kBatch * kIters;

  static data::SamplerConfig sampler_config(std::uint64_t seed) {
    data::SamplerConfig config;
    config.num_samples = kSamples;
    config.nodes = kNodes;
    config.gpus_per_node = kGpus;
    config.batch_size = kBatch;
    config.seed = seed;
    return config;
  }

  data::SampleCatalog catalog_;
  data::EpochSampler sampler_;
  runtime::Plan plan_;
  std::uint64_t planned_;
  std::vector<std::uint8_t> owner_;  ///< serving rank per sample; 0 = PFS only
  cache::CacheDirectory directory_;
  comm::MessageBus bus_;
  IterationLog log_;
  std::unique_ptr<runtime::PlanExecutor> executor_;
  std::unique_ptr<runtime::DistributionManager> client_;
  std::vector<std::unique_ptr<runtime::DistributionManager>> peers_;
};

// ---- lobster_planned ------------------------------------------------------

/// The paper's system end to end: core::plan_training runs the Lobster
/// strategy on preset_imagenet1k_multi_node (scale 50, 2 nodes x 2 GPUs,
/// batch 32, 3 epochs) in set-up; each pass executes the plan on both nodes
/// concurrently, wired as examples/offline_online_pipeline.cpp wires them.
class LobsterPlanned final : public Workload {
 public:
  static constexpr double kScale = 50.0;
  static constexpr std::uint16_t kNodes = 2;
  static constexpr std::uint16_t kGpus = 2;
  static constexpr std::uint32_t kBatch = 32;
  static constexpr std::uint32_t kEpochs = 3;
  static constexpr std::uint32_t kPoolCap = 1;

  explicit LobsterPlanned(std::uint64_t seed)
      : preset_(make_preset(seed)),
        planned_run_(plan(preset_)),
        catalog_(preset_.dataset, preset_.seed),
        sampler_(sampler_config(preset_)),
        directory_(kNodes) {
    const std::uint32_t iterations = sampler_.iterations_per_epoch();
    for (NodeId n = 0; n < kNodes; ++n) {
      for (std::uint32_t h = 0; h < iterations; ++h) {
        for (const SampleId s : sampler_.node_batch(0, h, n)) directory_.add(s, n);
      }
      planned_.push_back(planned_deliveries(sampler_, planned_run_.plan, n));
    }
  }

  PassResult run_pass() override {
    // Fresh bus, executors and managers each pass: every pass is the
    // planned run from an empty cache. Construction is not timed.
    comm::MessageBus bus(kNodes);
    std::vector<std::unique_ptr<runtime::PlanExecutor>> executors;
    std::vector<std::unique_ptr<runtime::DistributionManager>> managers;
    std::vector<IterationLog> logs(kNodes);
    for (NodeId n = 0; n < kNodes; ++n) {
      runtime::ExecutorConfig config;
      config.node = n;
      config.balance.max_pool_threads = kPoolCap;
      config.verify_payloads = true;
      config.iteration_hook = logs[n].hook();
      executors.push_back(std::make_unique<runtime::PlanExecutor>(config, catalog_, sampler_,
                                                                  planned_run_.plan));
    }
    for (NodeId n = 0; n < kNodes; ++n) {
      auto* executor = executors[n].get();
      managers.push_back(std::make_unique<runtime::DistributionManager>(
          bus.endpoint(n), [executor](SampleId s) { return executor->has_sample(s); },
          [this](SampleId s) { return catalog_.sample_bytes(s); }));
      executor->set_manager(managers.back().get());
      executor->set_directory(&directory_);
      managers.back()->start();
    }
    const std::vector<const runtime::DistributionManager*> views = {managers[0].get(),
                                                                    managers[1].get()};
    const std::size_t iterations = planned_run_.plan.total_iterations();

    PassResult pass;
    std::vector<NodeRun> nodes(kNodes);
    const Counters before = Counters::read(&bus, views);
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    std::vector<std::exception_ptr> errors(kNodes);
    {
      std::vector<std::jthread> threads;
      for (NodeId n = 0; n < kNodes; ++n) {
        threads.emplace_back([&, n] {
          try {
            nodes[n] = run_node(*executors[n], logs[n], iterations, planned_[n], kEpochs);
          } catch (...) {
            errors[n] = std::current_exception();
          }
        });
      }
    }
    pass.wall_s = seconds_since(start);
    pass.cpu_s = process_cpu_seconds() - cpu0;
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    const Counters after = Counters::read(&bus, views);
    for (auto& manager : managers) manager->stop();
    fold_executor_pass(nodes, before, after, pass);
    return pass;
  }

  std::string context() const override {
    return strf("preset %s scale %.0f: %u nodes x %u GPUs, batch %u, %u epochs, %zu "
                "iterations, %llu planned prefetches; loading pool cap %u per node, 1 "
                "serving thread per node, both nodes concurrent",
                preset_.id.c_str(), kScale, kNodes, kGpus, kBatch, kEpochs,
                planned_run_.plan.total_iterations(),
                static_cast<unsigned long long>(planned_run_.plan.total_prefetches()), kPoolCap);
  }

 private:
  static pipeline::ExperimentPreset make_preset(std::uint64_t seed) {
    auto preset = pipeline::preset_imagenet1k_multi_node(kScale, kNodes);
    preset.epochs = kEpochs;
    preset.cluster.gpus_per_node = kGpus;
    preset.cluster.cpu_threads = 16;
    preset.batch_size = kBatch;
    preset.seed = seed;
    return preset;
  }

  static core::PlannerResult plan(const pipeline::ExperimentPreset& preset) {
    return core::plan_training(preset, baselines::LoaderStrategy::lobster());
  }

  static data::SamplerConfig sampler_config(const pipeline::ExperimentPreset& preset) {
    data::SamplerConfig config;
    config.num_samples = static_cast<std::uint32_t>(preset.dataset.num_samples);
    config.nodes = preset.cluster.nodes;
    config.gpus_per_node = preset.cluster.gpus_per_node;
    config.batch_size = preset.batch_size;
    config.seed = preset.seed;
    return config;
  }

  pipeline::ExperimentPreset preset_;
  core::PlannerResult planned_run_;
  data::SampleCatalog catalog_;
  data::EpochSampler sampler_;
  cache::CacheDirectory directory_;
  std::vector<std::uint64_t> planned_;
};

// ---- cluster_preempt ------------------------------------------------------

/// ClusterRuntime under kFairSharePreemptive with elastic resize and
/// isolated baselines, over the job mix of bench/preempt_soak.cpp (mixed
/// widths, bursts arriving mid-run, two jobs sharing one dataset). Single
/// threaded; the executor and comm stay idle.
class ClusterPreempt final : public Workload {
 public:
  struct JobTemplate {
    const char* name;
    const char* model;
    std::uint16_t nodes;
    std::uint16_t min_nodes;
    std::uint16_t max_nodes;
    std::uint32_t epochs;
    std::uint32_t iters_per_epoch;
    double weight;
    std::uint64_t arrival_round;
    bool shared_dataset;
  };
  static constexpr JobTemplate kTemplates[] = {
      {"bg-a", "resnet50", 6, 0, 0, 3, 24, 0.5, 0, false},
      {"bg-b", "resnet50", 6, 0, 0, 3, 24, 0.5, 0, true},
      {"elastic", "resnet18", 4, 2, 8, 8, 8, 1.0, 0, false},
      {"burst-1", "alexnet", 4, 0, 0, 1, 8, 4.0, 6, false},
      {"burst-2", "alexnet", 6, 0, 0, 1, 8, 4.0, 14, true},
      {"burst-3", "vgg16", 4, 0, 0, 1, 8, 3.0, 22, false},
      {"small-a", "resnet18", 2, 0, 0, 2, 10, 1.0, 4, false},
      {"small-b", "resnet18", 2, 0, 0, 2, 10, 1.0, 10, false},
      {"burst-4", "alexnet", 4, 0, 0, 1, 8, 4.0, 30, false},
      {"mid-c", "resnet50", 4, 0, 0, 2, 12, 1.5, 18, false},
  };
  static constexpr std::uint16_t kClusterNodes = 16;
  static constexpr std::uint16_t kGpus = 2;
  static constexpr std::uint32_t kBatch = 16;
  static constexpr Bytes kBytes = 48 * 1024;

  explicit ClusterPreempt(std::uint64_t seed) {
    const auto shared = data::DatasetSpec::uniform(24 * 6 * kGpus * kBatch, kBytes,
                                                   "preempt-shared");
    std::uint32_t i = 0;
    for (const JobTemplate& t : kTemplates) {
      cluster::JobSpec spec;
      spec.name = t.name;
      spec.model = t.model;
      spec.nodes = t.nodes;
      spec.min_nodes = t.min_nodes;
      spec.max_nodes = t.max_nodes;
      spec.gpus_per_node = kGpus;
      spec.batch_size = kBatch;
      spec.epochs = t.epochs;
      spec.weight = t.weight;
      spec.arrival_round = t.arrival_round;
      spec.sampler_seed = seed + i;
      if (t.shared_dataset) {
        spec.dataset = shared;
        spec.dataset_seed = seed ^ 0x5EED;
      } else {
        spec.dataset = data::DatasetSpec::uniform(t.iters_per_epoch * t.nodes * kGpus * kBatch,
                                                  kBytes, strf("preempt-%u", i));
        spec.dataset_seed = seed + 100 + i;
      }
      specs_.push_back(spec);
      ++i;
    }
    // Untimed first run: allocator and lazy statics reach steady state.
    const PassResult warmup = run_pass();
    if (warmup.failed != 0) {
      throw std::runtime_error("cluster_preempt: set-up run failed its checks");
    }
  }

  PassResult run_pass() override {
    cluster::ClusterConfig config;
    config.nodes = kClusterNodes;
    config.policy = cluster::SchedulerPolicy::kFairSharePreemptive;
    config.elastic_resize = true;
    config.t_train_s = 4e-3;
    config.starvation_rounds = 96;
    config.run_isolated_baselines = true;
    cluster::ClusterRuntime runtime(config);
    for (const auto& spec : specs_) runtime.submit(spec);

    PassResult pass;
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    cluster::ClusterResult result;
    {
      PERFBENCH_SPAN(span, "cluster.ClusterRuntime.run");
      result = runtime.run();
    }
    pass.wall_s = seconds_since(start);
    pass.cpu_s = process_cpu_seconds() - cpu0;

    std::vector<double> slowdowns;
    for (const auto& job : result.jobs) {
      pass.delivered += job.samples_delivered;
      pass.attempted += 1;
      const bool ok = job.state == cluster::JobState::kFinished &&
                      job.samples_delivered == job.samples_expected && job.digest_match;
      if (!ok) pass.failed += 1;
      slowdowns.push_back(job.slowdown);
    }
    if (result.jobs.size() != specs_.size()) pass.failed += 1;
    std::sort(slowdowns.begin(), slowdowns.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.95 * static_cast<double>(slowdowns.size())));
    const double p95 =
        slowdowns.empty() ? 0.0 : slowdowns[std::min(slowdowns.size() - 1, rank > 0 ? rank - 1 : 0)];

    auto& v = pass.values;
    v["makespan_s"] = result.makespan_s;
    v["slowdown_p95"] = p95;
    v["pfs_read_share"] =
        ratio(static_cast<double>(result.total_pfs_reads), static_cast<double>(pass.delivered));
    v["cluster.run_s"] = pass.wall_s;
    v["cluster.rounds"] = static_cast<double>(result.rounds);
    v["cluster.preemptions"] = static_cast<double>(result.preemptions);
    v["cluster.resumes"] = static_cast<double>(result.resumes);
    v["cluster.checkpoints_cut"] = static_cast<double>(result.checkpoints_cut);
    v["cluster.checkpoint_bytes"] = static_cast<double>(result.checkpoint_bytes);
    v["cluster.residency_restored"] = static_cast<double>(result.residency_restored);
    v["cluster.residency_lost"] = static_cast<double>(result.residency_lost);
    v["cluster.kv_hit_ratio"] =
        ratio(static_cast<double>(result.kv.get_hits),
              static_cast<double>(result.kv.get_hits + result.kv.get_misses));
    v["cluster.arbiter_evictions"] = static_cast<double>(result.arbiter.evictions);
    return pass;
  }

  std::string context() const override {
    return strf("%zu jobs on %u nodes x %u GPUs, batch %u, %llu B samples; "
                "kFairSharePreemptive, elastic resize, isolated baselines; single thread",
                specs_.size(), kClusterNodes, kGpus, kBatch,
                static_cast<unsigned long long>(kBytes));
  }

  bool executor_workload() const override { return false; }

 private:
  std::vector<cluster::JobSpec> specs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"warm_local", "remote_cold", "lobster_planned",
                                                 "cluster_preempt"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "warm_local") return std::make_unique<WarmLocal>(seed);
  if (name == "remote_cold") return std::make_unique<RemoteCold>(seed);
  if (name == "lobster_planned") return std::make_unique<LobsterPlanned>(seed);
  if (name == "cluster_preempt") return std::make_unique<ClusterPreempt>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
