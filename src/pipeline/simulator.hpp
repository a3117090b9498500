// The training-pipeline simulator.
//
// Replays data-parallel DNN training over the simulated cluster at
// iteration granularity, with the full storage hierarchy, distributed
// cache, prefetching and thread-management machinery in the loop:
//
//   for every iteration h and node i:
//     1. classify each GPU's mini-batch against the node cache and the
//        cluster directory (local / remote / PFS) and fetch the misses
//        into the cache (evicting via the strategy's policy);
//     2. allocate loading + preprocessing threads per the strategy —
//        fixed splits for the baselines; the knee-seeking preprocessing
//        allocation, Algorithm 1 loading allocation, and preprocessing→
//        loading thread stealing (§4.1 step 2) for Lobster;
//     3. obtain ground-truth stage durations from the storage and
//        preprocessing models *with* stochastic I/O noise and node-level
//        PFS bursts (Lobster planned on noise-free predictions, so residual
//        imbalance survives, as in the paper's §5.3);
//     4. synchronize all N×M GPUs on the all-reduce barrier; record
//        per-GPU idle time, imbalance, bottleneck attribution;
//     5. run the strategy's post-iteration cache maintenance: Lobster's
//        reuse-count / reuse-distance eviction sweep, then deterministic
//        prefetching into the spare capacity and spare loading time.
//
// A run may hold K >= 1 jobs training different models over the same
// dataset (§2: "different DNN models sharing the same training data"). The
// jobs time-share the GPUs round-robin at iteration granularity: slot s runs
// job s % K at iteration s / K. Each job has its own shuffle, oracle,
// prefetcher, trainer and metrics; the catalog, directory and node caches
// are shared, and with K > 1 the caches and the eviction sweep consult the
// merged future-access view of every job (data::MergedAccessOracle).
//
// Everything is deterministic in (preset.seed, strategy, job models): noise
// streams are keyed by (slot, node, gpu). With one job the slot is the
// global iteration id.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/strategies.hpp"
#include "cache/directory.hpp"
#include "cache/node_cache.hpp"
#include "cache/prefetcher.hpp"
#include "core/perf_model.hpp"
#include "core/preproc_model.hpp"
#include "core/thread_allocator.hpp"
#include "data/dataset.hpp"
#include "data/oracle.hpp"
#include "data/trace.hpp"
#include "sim/fetch_replay.hpp"
#include "data/sampler.hpp"
#include "pipeline/calibration.hpp"
#include "pipeline/metrics.hpp"
#include "pipeline/trainer_model.hpp"
#include "runtime/plan.hpp"
#include "storage/hierarchy.hpp"

namespace lobster::pipeline {

struct SimulationConfig {
  ExperimentPreset preset;
  baselines::LoaderStrategy strategy;
  /// Epoch window [lo, hi) for which detailed per-GPU records are retained.
  std::uint32_t detail_epoch_lo = 0;
  std::uint32_t detail_epoch_hi = 0;
  /// Algorithm 1 parameters, including every load-balance knob
  /// (allocator.balance.total_load_threads is set per iteration by the
  /// simulator; tau, max_preproc_steals and the rest apply as given).
  core::AllocatorConfig allocator;
  /// Oracle lookahead in epochs (>= 3 covers the reuse-distance policy's
  /// 2·I horizon).
  std::uint32_t oracle_window_epochs = 3;
  /// Fraction of the node's PFS/remote capacity usable for background
  /// prefetching during spare pipeline time.
  double prefetch_bandwidth_fraction = 0.8;
  /// When non-null, the run records every thread/prefetch/eviction decision
  /// here — the offline planning mode of §4.5. Single-job runs only.
  runtime::Plan* record_plan = nullptr;
  /// When non-null, every sample access is appended with the tier that
  /// served it (the §3 motivation-study instrumentation). Single-job runs
  /// only.
  data::AccessTrace* record_trace = nullptr;
  /// Ground-truth loading times from the discrete-event fetch replay instead
  /// of the closed-form Eq. 1. Lobster's *decisions* still use the analytic
  /// model either way — this separates the planner's model from the
  /// simulated reality (slower; ~per-sample event costs).
  bool des_loading = false;
  /// Models of the jobs sharing the dataset, GPUs and node caches. Empty
  /// means one job running `preset.model`. Job 0 shuffles with
  /// `preset.seed`; job j > 0 with a stream derived from it and j.
  std::vector<std::string> job_models;
};

struct SimulationResult {
  /// Job 0's metrics. Every job's cache stats are the shared node caches'
  /// totals over all jobs.
  RunMetrics metrics;
  /// Jobs 1..K-1 of a multi-job run, in job order (empty with one job).
  std::vector<RunMetrics> other_job_metrics;
  std::vector<cache::CacheStats> node_cache_stats;  ///< DRAM tier
  std::vector<cache::CacheStats> node_ssd_stats;    ///< SSD tier (zeros when off)
  std::uint32_t iterations_per_epoch = 0;
  double samples_per_second = 0.0;
  /// Mean loading threads per node actually used (diagnostics).
  double mean_load_threads = 0.0;
  double mean_preproc_threads = 0.0;
};

class TrainingSimulator {
 public:
  explicit TrainingSimulator(SimulationConfig config);
  ~TrainingSimulator();

  TrainingSimulator(const TrainingSimulator&) = delete;
  TrainingSimulator& operator=(const TrainingSimulator&) = delete;

  /// Runs the configured number of epochs of every job and returns all
  /// metrics.
  SimulationResult run();

 private:
  struct NodeState;
  struct Job;

  /// Per-GPU tier classification + cache fill for one node-iteration.
  /// When `fetch_lists` is non-null (DES loading mode), the per-sample
  /// (bytes, tier) fetch list of each GPU is recorded there.
  std::vector<core::GpuDemand> classify_and_fetch(const Job& job, NodeState& node,
                                                  std::uint32_t epoch, std::uint32_t h,
                                                  std::vector<GpuIterRecord>& records,
                                                  std::vector<std::vector<sim::Fetch>>* fetch_lists);

  /// Thread allocation for one node under the configured strategy.
  struct ThreadDecision {
    std::vector<double> load_threads;  ///< per GPU
    double preproc_threads_per_gpu = 1.0;
  };
  ThreadDecision decide_threads(const Job& job, const std::vector<core::GpuDemand>& demands,
                                const storage::Contention& contention);

  /// Lobster's post-iteration reuse-count / reuse-distance sweep.
  void reuse_sweep(const Job& job, NodeState& node, std::uint32_t epoch, std::uint32_t h);

  /// Slowdown multiplier for local reads / preprocessing when the strategy
  /// is not NUMA-aware (§5.2(b)).
  double numa_factor() const noexcept;

  /// Deterministic prefetching: background staging with the node I/O
  /// capacity left over after this iteration's demand fetches, using the
  /// strategy's own loading threads.
  void prefetch(const Job& job, NodeState& node, std::uint32_t epoch, std::uint32_t h,
                Seconds iteration_duration, const storage::TierBytes& demand,
                double total_load_threads);

  SimulationConfig config_;
  std::unique_ptr<data::SampleCatalog> catalog_;
  std::unique_ptr<cache::CacheDirectory> directory_;
  std::unique_ptr<storage::StorageModel> storage_;
  std::unique_ptr<core::PreprocGroundTruth> preproc_truth_;
  std::unique_ptr<core::PreprocModelPortfolio> preproc_portfolio_;
  std::vector<std::unique_ptr<Job>> jobs_;
  /// Merged future-access view over every job's oracle (K > 1 only).
  std::unique_ptr<data::MergedAccessOracle> merged_oracle_;
  /// What the caches and the reuse sweep consult: job 0's oracle when it
  /// runs alone, else `merged_oracle_`.
  const data::AccessOracle* oracle_ = nullptr;
  std::vector<std::unique_ptr<NodeState>> nodes_;

  std::uint32_t knee_preproc_threads_ = 1;
  runtime::IterationPlan* plan_iter_ = nullptr;  ///< recording hook (may be null)
  double thread_usage_load_ = 0.0;
  double thread_usage_preproc_ = 0.0;
  std::uint64_t thread_usage_samples_ = 0;
};

/// Convenience: run one (preset, strategy) pair with default simulator
/// settings and return the result.
SimulationResult simulate(const ExperimentPreset& preset,
                          const baselines::LoaderStrategy& strategy,
                          std::uint32_t detail_epoch_lo = 0, std::uint32_t detail_epoch_hi = 0);

}  // namespace lobster::pipeline
