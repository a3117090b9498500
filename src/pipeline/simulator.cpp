#include "pipeline/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "cache/policies.hpp"
#include "cache/tiered_cache.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace lobster::pipeline {

using baselines::LoaderStrategy;
using baselines::ThreadPolicy;

struct TrainingSimulator::NodeState {
  NodeId id = 0;
  std::unique_ptr<cache::TieredNodeCache> cache;
  /// Max per-GPU pipeline (load+preproc) time of the last iteration — the
  /// spare-time baseline for prefetching.
  Seconds last_max_pipeline = 0.0;
  /// Total loading threads the node used in the last iteration (staging bw).
  double last_load_threads = 1.0;
};

/// One training job over the shared dataset: its own shuffle, future
/// accesses, staging plan and compute model (T_train differs per model).
struct TrainingSimulator::Job {
  std::unique_ptr<data::EpochSampler> sampler;
  std::unique_ptr<data::FutureAccessOracle> oracle;
  std::unique_ptr<cache::Prefetcher> prefetcher;
  TrainerModel trainer;
  std::unique_ptr<core::PerfModel> perf_model;
};

namespace {

/// Mean-one lognormal noise factor, deterministic in the stream ids (the
/// run-loop slot, node and GPU).
double io_noise(std::uint64_t seed, IterId slot, NodeId node, GpuId gpu, double sigma) {
  if (sigma <= 0.0) return 1.0;
  Rng rng(derive_seed(seed, slot, (static_cast<std::uint64_t>(node) << 20) | gpu, 0x10C0DEULL));
  return std::exp(rng.normal(0.0, sigma) - sigma * sigma / 2.0);
}

bool pfs_burst(std::uint64_t seed, IterId slot, NodeId node, double probability) {
  if (probability <= 0.0) return false;
  Rng rng(derive_seed(seed, slot, node, 0xB5257ULL));
  return rng.uniform() < probability;
}

/// Distinguishes the virtual-time tracks of successive simulate() calls in
/// one process (a fig bench runs dozens of runs back to back).
std::atomic<std::uint32_t> trace_run_counter{0};

/// Per-run tracing state: a "pipeline" and a "train" virtual track per node,
/// one cluster-wide track for barrier-level signals (Eq. 2-3 gap series,
/// imbalance flags, epoch markers), plus the interned stage names. Empty
/// (and never consulted) when tracing was off at run() entry.
struct RunTrace {
  bool on = false;
  std::vector<std::uint32_t> io_tracks;   ///< load/preproc/iteration spans
  std::vector<std::uint32_t> gpu_tracks;  ///< train spans
  std::uint32_t cluster_track = 0;        ///< t_max/t_min counters, markers
  std::uint32_t name_iteration = 0;
  std::uint32_t name_load = 0;
  std::uint32_t name_preproc = 0;
  std::uint32_t name_train = 0;
  std::uint32_t name_load_threads = 0;
  std::uint32_t name_cache_used = 0;
  std::uint32_t name_t_max = 0;
  std::uint32_t name_t_min = 0;
  std::uint32_t name_imbalanced = 0;
  std::uint32_t name_epoch_begin = 0;
  std::uint32_t name_fetch_local = 0;
  std::uint32_t name_fetch_ssd = 0;
  std::uint32_t name_fetch_remote = 0;
  std::uint32_t name_fetch_pfs = 0;
  std::uint32_t name_hits_local = 0;
  std::uint32_t name_hits_ssd = 0;
  std::uint32_t name_hits_remote = 0;
  std::uint32_t name_miss_pfs = 0;

  static RunTrace begin(std::uint16_t nodes) {
    RunTrace trace;
    auto& tracer = telemetry::Tracer::instance();
    if (!tracer.enabled()) return trace;
    trace.on = true;
    const auto run_id = trace_run_counter.fetch_add(1, std::memory_order_relaxed);
    for (std::uint16_t n = 0; n < nodes; ++n) {
      trace.io_tracks.push_back(tracer.new_track(strf("sim%u/node%u/pipeline", run_id, n)));
      trace.gpu_tracks.push_back(tracer.new_track(strf("sim%u/node%u/train", run_id, n)));
    }
    trace.cluster_track = tracer.new_track(strf("sim%u/cluster", run_id));
    trace.name_iteration = tracer.intern("iteration");
    trace.name_load = tracer.intern("load");
    trace.name_preproc = tracer.intern("preproc");
    trace.name_train = tracer.intern("train");
    trace.name_load_threads = tracer.intern("load_threads");
    trace.name_cache_used = tracer.intern("cache_used_bytes");
    trace.name_t_max = tracer.intern("t_max");
    trace.name_t_min = tracer.intern("t_min");
    trace.name_imbalanced = tracer.intern("imbalanced");
    trace.name_epoch_begin = tracer.intern("epoch_begin");
    trace.name_fetch_local = tracer.intern("fetch_local_s");
    trace.name_fetch_ssd = tracer.intern("fetch_ssd_s");
    trace.name_fetch_remote = tracer.intern("fetch_remote_s");
    trace.name_fetch_pfs = tracer.intern("fetch_pfs_s");
    trace.name_hits_local = tracer.intern("hits_local");
    trace.name_hits_ssd = tracer.intern("hits_ssd");
    trace.name_hits_remote = tracer.intern("hits_remote");
    trace.name_miss_pfs = tracer.intern("miss_pfs");
    return trace;
  }
};

}  // namespace

TrainingSimulator::TrainingSimulator(SimulationConfig config) : config_(std::move(config)) {
  const auto& preset = config_.preset;
  if (preset.epochs == 0) throw std::invalid_argument("TrainingSimulator: epochs == 0");
  std::vector<std::string> models = config_.job_models;
  if (models.empty()) models.push_back(preset.model);
  if (models.size() > 1 && (config_.record_plan != nullptr || config_.record_trace != nullptr)) {
    throw std::invalid_argument(
        "TrainingSimulator: plan and trace recording have no job dimension (one job only)");
  }

  catalog_ = std::make_unique<data::SampleCatalog>(preset.dataset, preset.seed);

  const bool needs_directory =
      config_.strategy.distributed_cache || config_.strategy.eviction_policy == "lobster";
  if (needs_directory) directory_ = std::make_unique<cache::CacheDirectory>(preset.cluster.nodes);

  storage_ = std::make_unique<storage::StorageModel>(preset.storage);
  preproc_truth_ = std::make_unique<core::PreprocGroundTruth>(preset.preproc);

  // Offline profiling of the preprocessing stage (§4.1): reference sizes at
  // the dataset's quartiles.
  const auto mean = static_cast<Bytes>(catalog_->mean_bytes());
  std::vector<Bytes> reference_sizes = {std::max<Bytes>(mean / 2, 1), mean,
                                        std::max<Bytes>(mean * 2, 2)};
  const std::uint32_t max_preproc_threads =
      std::max<std::uint32_t>(2, preset.cluster.cpu_threads / preset.cluster.gpus_per_node);
  preproc_portfolio_ = std::make_unique<core::PreprocModelPortfolio>(
      *preproc_truth_, reference_sizes, max_preproc_threads, /*repeats=*/3, preset.seed);
  knee_preproc_threads_ = preproc_portfolio_->optimal_threads(mean);

  std::vector<const data::AccessOracle*> oracles;
  for (std::size_t j = 0; j < models.size(); ++j) {
    auto job = std::make_unique<Job>();
    data::SamplerConfig sampler_config;
    sampler_config.num_samples = catalog_->size();
    sampler_config.nodes = preset.cluster.nodes;
    sampler_config.gpus_per_node = preset.cluster.gpus_per_node;
    sampler_config.batch_size = preset.batch_size;
    sampler_config.seed = j == 0 ? preset.seed : derive_seed(preset.seed, 0x10BB5ULL, j);
    job->sampler = std::make_unique<data::EpochSampler>(sampler_config);
    job->oracle =
        std::make_unique<data::FutureAccessOracle>(*job->sampler, config_.oracle_window_epochs);
    if (config_.strategy.prefetching) {
      job->prefetcher = std::make_unique<cache::Prefetcher>(*job->sampler, *catalog_,
                                                            config_.strategy.prefetch_lookahead);
    }
    job->trainer = TrainerModel::by_name(models[j]);
    job->perf_model = std::make_unique<core::PerfModel>(*storage_, *preproc_portfolio_,
                                                        job->trainer.t_train);
    oracles.push_back(job->oracle.get());
    jobs_.push_back(std::move(job));
  }
  if (jobs_.size() == 1) {
    oracle_ = oracles.front();
  } else {
    merged_oracle_ = std::make_unique<data::MergedAccessOracle>(std::move(oracles));
    oracle_ = merged_oracle_.get();
  }

  for (NodeId n = 0; n < preset.cluster.nodes; ++n) {
    auto state = std::make_unique<NodeState>();
    state->id = n;
    state->cache = std::make_unique<cache::TieredNodeCache>(
        n, preset.cluster.cache_bytes, preset.cluster.ssd_cache_bytes,
        config_.strategy.eviction_policy, config_.strategy.eviction_policy, *catalog_,
        directory_.get(), oracle_, jobs_.front()->sampler->iterations_per_epoch());
    nodes_.push_back(std::move(state));
  }
}

TrainingSimulator::~TrainingSimulator() = default;

double TrainingSimulator::numa_factor() const noexcept {
  if (config_.strategy.numa_aware) return 1.0;
  // Half the traffic crosses sockets at the reduced efficiency.
  const double efficiency = config_.preset.cluster.numa_remote_efficiency;
  return 0.5 + 0.5 / std::max(efficiency, 0.1);
}

std::vector<core::GpuDemand> TrainingSimulator::classify_and_fetch(
    const Job& job, NodeState& node, std::uint32_t epoch, std::uint32_t h,
    std::vector<GpuIterRecord>& records, std::vector<std::vector<sim::Fetch>>* fetch_lists) {
  const auto& preset = config_.preset;
  const IterId now = job.sampler->global_iter(epoch, h);
  const std::uint16_t gpus = preset.cluster.gpus_per_node;
  std::vector<core::GpuDemand> demands(gpus);

  // Pin the whole node batch first: a co-located GPU's fetch must not evict
  // samples another GPU needs this very iteration.
  std::vector<std::vector<SampleId>> batches(gpus);
  for (GpuId g = 0; g < gpus; ++g) {
    batches[g] = job.sampler->minibatch(epoch, h, node.id, g);
    for (const SampleId s : batches[g]) node.cache->pin(s);
  }

  for (GpuId g = 0; g < gpus; ++g) {
    auto& demand = demands[g];
    auto& record = records[flat_gpu_rank({node.id, g}, gpus)];
    demand.samples = static_cast<std::uint32_t>(batches[g].size());
    for (const SampleId s : batches[g]) {
      const Bytes size = catalog_->sample_bytes(s);
      const auto hit = node.cache->access(s, now);
      if (hit == cache::TierHit::kMemory) {
        demand.bytes.local += size;
        ++record.local_hits;
        if (config_.record_trace != nullptr) {
          config_.record_trace->append({now, node.id, g, s, data::ServedBy::kMemory});
        }
        if (fetch_lists != nullptr) (*fetch_lists)[g].push_back({size, sim::FetchTier::kLocal});
        continue;
      }
      if (hit == cache::TierHit::kSsd) {
        demand.bytes.ssd += size;
        ++record.ssd_hits;
        if (config_.record_trace != nullptr) {
          config_.record_trace->append({now, node.id, g, s, data::ServedBy::kSsd});
        }
        if (fetch_lists != nullptr) (*fetch_lists)[g].push_back({size, sim::FetchTier::kSsd});
        continue;
      }
      const bool remote = config_.strategy.distributed_cache && directory_ != nullptr &&
                          directory_->held_elsewhere(s, node.id);
      if (remote) {
        demand.bytes.remote += size;
        ++record.remote_hits;
      } else {
        demand.bytes.pfs += size;
        ++record.pfs_misses;
      }
      if (config_.record_trace != nullptr) {
        config_.record_trace->append(
            {now, node.id, g, s, remote ? data::ServedBy::kRemote : data::ServedBy::kPfs});
      }
      if (fetch_lists != nullptr) {
        (*fetch_lists)[g].push_back(
            {size, remote ? sim::FetchTier::kRemote : sim::FetchTier::kPfs});
      }
      // The fetched sample lands in the local cache (staging), evicting via
      // the policy. The newcomer's own next use feeds the coordination rule.
      const IterId reuse = oracle_->reuse_distance_on_node(s, node.id, now);
      node.cache->insert(s, now, reuse);
    }
    demand.pending_requests = demand.bytes.remote + demand.bytes.pfs;
    record.bytes = demand.bytes;
  }
  return demands;
}

TrainingSimulator::ThreadDecision TrainingSimulator::decide_threads(
    const Job& job, const std::vector<core::GpuDemand>& demands,
    const storage::Contention& contention) {
  const auto& preset = config_.preset;
  const auto& strategy = config_.strategy;
  const std::uint16_t gpus = preset.cluster.gpus_per_node;
  ThreadDecision decision;
  decision.load_threads.resize(gpus, 1.0);

  if (strategy.gpu_preprocessing) {
    // §2: preprocessing on the GPU — every CPU thread can serve loading.
    // Thread assignment across GPU queues still follows the strategy.
    decision.preproc_threads_per_gpu = 0.0;
    if (strategy.thread_policy == ThreadPolicy::kFixed) {
      std::fill(decision.load_threads.begin(), decision.load_threads.end(),
                static_cast<double>(preset.cluster.cpu_threads) / gpus);
    } else {
      core::AllocatorConfig alloc_config = config_.allocator;
      alloc_config.balance.total_load_threads = preset.cluster.cpu_threads;
      const core::ThreadAllocator allocator(*job.perf_model, alloc_config);
      const auto alloc = strategy.thread_policy == ThreadPolicy::kProportional
                             ? core::AllocationResult{allocator.proportional_allocation(demands),
                                                      {}, 0.0, false, 0}
                             : allocator.allocate(demands, /*preproc_threads=*/0.25, contention);
      for (std::size_t j = 0; j < alloc.threads.size(); ++j) {
        decision.load_threads[j] = alloc.threads[j];
      }
    }
    return decision;
  }

  if (strategy.thread_policy == ThreadPolicy::kFixed) {
    const double load_total = strategy.fixed_load_threads;
    const double preproc_total =
        strategy.fixed_preproc_threads > 0
            ? strategy.fixed_preproc_threads
            : std::max(1.0, static_cast<double>(preset.cluster.cpu_threads) - load_total);
    // One shared pool, equal service per GPU (what the paper criticizes).
    std::fill(decision.load_threads.begin(), decision.load_threads.end(),
              load_total / static_cast<double>(gpus));
    decision.preproc_threads_per_gpu = preproc_total / static_cast<double>(gpus);
    return decision;
  }

  // Per-GPU queues. Preprocessing gets its knee allocation per GPU (§4.1
  // step 1); the rest of the CPUs go to loading.
  std::uint32_t preproc_per_gpu = knee_preproc_threads_;
  auto load_budget = [&](std::uint32_t per_gpu_preproc) {
    const std::uint32_t preproc_total = per_gpu_preproc * gpus;
    return preset.cluster.cpu_threads > preproc_total + gpus
               ? preset.cluster.cpu_threads - preproc_total
               : static_cast<std::uint32_t>(gpus);  // floor: 1 loader per GPU
  };

  if (strategy.thread_policy == ThreadPolicy::kProportional) {
    core::AllocatorConfig alloc_config = config_.allocator;
    alloc_config.balance.total_load_threads = load_budget(preproc_per_gpu);
    const core::ThreadAllocator allocator(*job.perf_model, alloc_config);
    const auto alloc = allocator.proportional_allocation(demands);
    for (std::size_t j = 0; j < alloc.size(); ++j) decision.load_threads[j] = alloc[j];
    decision.preproc_threads_per_gpu = preproc_per_gpu;
    return decision;
  }

  // Full Lobster: Algorithm 1, then §4.1 step 2 — steal preprocessing
  // threads while loading remains the bottleneck and preprocessing would
  // not become one.
  core::AllocationResult best;
  for (std::uint32_t steal = 0;; ++steal) {
    core::AllocatorConfig alloc_config = config_.allocator;
    alloc_config.balance.total_load_threads = load_budget(preproc_per_gpu);
    const core::ThreadAllocator allocator(*job.perf_model, alloc_config);
    best = allocator.allocate(demands, preproc_per_gpu, contention);

    const double worst_dif =
        *std::max_element(best.t_dif.begin(), best.t_dif.end());
    if (worst_dif < config_.allocator.balance.tau) break;            // goal (1) reached
    if (steal >= config_.allocator.balance.max_preproc_steals) break;          // steal budget
    if (preproc_per_gpu <= 1) break;                         // nothing left
    // Would preprocessing become the bottleneck with one thread fewer?
    Bytes worst_batch = 0;
    std::uint32_t worst_samples = 0;
    for (const auto& d : demands) {
      if (d.bytes.total() > worst_batch) {
        worst_batch = d.bytes.total();
        worst_samples = d.samples;
      }
    }
    const Seconds preproc_after = preproc_portfolio_->predict_batch_time(
        preproc_per_gpu - 1, worst_batch, worst_samples);
    if (preproc_after >= job.trainer.t_train) break;  // §4.1: preproc must not bottleneck
    --preproc_per_gpu;
  }
  for (std::size_t j = 0; j < best.threads.size(); ++j) {
    decision.load_threads[j] = best.threads[j];
  }
  decision.preproc_threads_per_gpu = preproc_per_gpu;
  return decision;
}

void TrainingSimulator::reuse_sweep(const Job& job, NodeState& node, std::uint32_t epoch,
                                    std::uint32_t h) {
  const IterId now = job.sampler->global_iter(epoch, h);
  const std::uint32_t I = job.sampler->iterations_per_epoch();
  // "after iteration h has finished, we can check the next reuse distance of
  // each training sample d_k in B^h" (§4.4).
  for (const SampleId s : job.sampler->node_batch(epoch, h, node.id)) {
    if (!node.cache->peek(s)) continue;
    // Reuse count policy: no further uses on this node -> evict, unless this
    // is the group's last copy of a sample some node still needs.
    const std::uint32_t remaining = oracle_->remaining_uses_on_node(s, node.id, now);
    if (remaining == 0) {
      const bool last_needed_copy = directory_ != nullptr &&
                                    directory_->sole_holder(s, node.id) &&
                                    oracle_->needed_by_other_node(s, node.id, now);
      if (!last_needed_copy) {
        node.cache->evict(s);
        if (plan_iter_ != nullptr) plan_iter_->nodes[node.id].evictions.push_back(s);
        continue;
      }
    }
    // Reuse distance policy: next use beyond 2I - h -> not needed next epoch.
    const IterId distance = oracle_->reuse_distance_on_node(s, node.id, now);
    if (distance != kNeverIter && distance > static_cast<IterId>(2 * I - h)) {
      node.cache->evict(s);
      if (plan_iter_ != nullptr) plan_iter_->nodes[node.id].evictions.push_back(s);
    }
  }
}

void TrainingSimulator::prefetch(const Job& job, NodeState& node, std::uint32_t epoch,
                                 std::uint32_t h, Seconds iteration_duration,
                                 const storage::TierBytes& demand, double total_load_threads) {
  if (job.prefetcher == nullptr || iteration_duration <= 0.0) return;
  const auto& params = storage_->params();
  // Staging runs in the background for the whole iteration using the
  // strategy's own loading threads (DALI's 3 threads stage slower than a
  // 16-worker DataLoader), bounded by the node's PFS share. The capacity
  // over `iteration_duration`, minus what this iteration's demand fetches
  // already consumed on the same path, is available to stage future
  // samples. Staging is bandwidth-bound, so thread counts past the curve's
  // knee add nothing. The peer-cache path is budgeted separately — it only
  // helps for samples some peer actually holds.
  const double derate =
      config_.prefetch_bandwidth_fraction * config_.strategy.staging_efficiency;
  const double cluster_share =
      params.pfs_cluster_bps / static_cast<double>(config_.preset.cluster.nodes);
  const double staging_threads =
      std::min(total_load_threads, static_cast<double>(params.pfs.knee_threads()));
  const double pfs_bw =
      std::min(params.pfs.aggregate_bps(staging_threads), cluster_share) * derate;
  const double pfs_capacity =
      std::max(0.0, iteration_duration * pfs_bw - static_cast<double>(demand.pfs));

  double remote_capacity = 0.0;
  if (config_.strategy.distributed_cache && config_.preset.cluster.nodes > 1) {
    const double remote_bw = 0.5 * params.remote.peak_bps() * derate;
    remote_capacity =
        std::max(0.0, iteration_duration * remote_bw - static_cast<double>(demand.remote));
  }
  if (pfs_capacity <= 0.0 && remote_capacity <= 0.0) return;

  const auto plan = job.prefetcher->plan(node.id, epoch, h, *node.cache, directory_.get(),
                                         static_cast<Bytes>(remote_capacity),
                                         static_cast<Bytes>(pfs_capacity), config_.preset.epochs);
  const IterId now = job.sampler->global_iter(epoch, h);
  for (const auto& candidate : plan.fetches) {
    const IterId reuse = candidate.first_use > now ? candidate.first_use - now : 0;
    node.cache->insert(candidate.sample, now, reuse);
    if (plan_iter_ != nullptr) plan_iter_->nodes[node.id].prefetches.push_back(candidate.sample);
  }
}

SimulationResult TrainingSimulator::run() {
  const auto& preset = config_.preset;
  const std::uint16_t gpus = preset.cluster.gpus_per_node;
  const std::uint32_t total_gpus = preset.cluster.total_gpus();
  const std::size_t job_count = jobs_.size();
  const std::uint32_t I = jobs_.front()->sampler->iterations_per_epoch();

  LOBSTER_TRACE_SPAN_ARG(kPipeline, "simulate", preset.cluster.nodes);
  const RunTrace trace = RunTrace::begin(preset.cluster.nodes);
  // Virtual-time start of the current iteration; the cluster barrier keeps
  // all nodes on one clock.
  Seconds trace_cursor = 0.0;

  std::vector<RunMetrics> metrics;
  for (std::size_t j = 0; j < job_count; ++j) {
    metrics.emplace_back(preset.epochs, I, total_gpus, config_.detail_epoch_lo,
                         config_.detail_epoch_hi);
  }

  if (config_.record_plan != nullptr) {
    auto& plan = *config_.record_plan;
    plan.cluster_nodes = preset.cluster.nodes;
    plan.gpus_per_node = preset.cluster.gpus_per_node;
    plan.epochs = preset.epochs;
    plan.iterations_per_epoch = I;
    plan.batch_size = preset.batch_size;
    plan.seed = preset.seed;
    plan.iterations.clear();
    plan.iterations.reserve(static_cast<std::size_t>(preset.epochs) * I);
  }

  std::uint64_t samples_done = 0;

  // Round-robin slots: slot s runs job s % K at flat iteration s / K, so
  // the jobs advance in lockstep on one iteration timeline.
  const IterId slots = static_cast<IterId>(preset.epochs) * I * job_count;
  for (IterId slot = 0; slot < slots; ++slot) {
    const std::size_t job_index = slot % job_count;
    const Job& job = *jobs_[job_index];
    const IterId now = slot / job_count;
    const auto epoch = static_cast<std::uint32_t>(now / I);
    const auto h = static_cast<std::uint32_t>(now % I);
    if (h == 0 && job_index == 0) {
      for (auto& each : jobs_) each->oracle->rebase(epoch);
      for (auto& node : nodes_) node->cache->on_epoch(now);
      if (trace.on) {
        // Epoch boundary marker: lets the analyzer segment the virtual
        // timeline into epochs (warm-up exclusion, per-epoch breakdowns)
        // without knowing the sampler's iteration count.
        telemetry::Tracer::instance().instant_at(telemetry::Category::kPipeline,
                                                 trace.name_epoch_begin, trace.cluster_track,
                                                 trace_cursor, epoch);
      }
    }

    IterationRecord record;
    record.iter = now;
    record.epoch = epoch;
    record.gpus.resize(total_gpus);

    if (config_.record_plan != nullptr) {
      config_.record_plan->iterations.emplace_back();
      plan_iter_ = &config_.record_plan->iterations.back();
      plan_iter_->iter = now;
      plan_iter_->nodes.resize(nodes_.size());
    }

    // ---- 1. classification + cache fill, per node
    std::vector<std::vector<core::GpuDemand>> demands(nodes_.size());
    std::vector<std::vector<std::vector<sim::Fetch>>> fetch_lists;
    if (config_.des_loading) {
      fetch_lists.assign(nodes_.size(), std::vector<std::vector<sim::Fetch>>(gpus));
    }
    for (auto& node : nodes_) {
      // Cache hits/misses/evictions inside classify land on this node's
      // virtual track at the iteration start.
      const telemetry::VirtualTimeScope vt_scope(
          trace.on ? trace.io_tracks[node->id] : 0, trace_cursor);
      demands[node->id] = classify_and_fetch(
          job, *node, epoch, h, record.gpus,
          config_.des_loading ? &fetch_lists[node->id] : nullptr);
    }

    // ---- 2. contention census
    storage::Contention base;
    base.pfs_readers_cluster = 0;
    std::vector<storage::Contention> node_contention(nodes_.size());
    for (auto& node : nodes_) {
      auto& c = node_contention[node->id];
      c.local_readers_node = c.ssd_readers_node = c.remote_readers_node = 0;
      c.pfs_readers_node = 0;
      for (const auto& d : demands[node->id]) {
        if (d.bytes.local > 0) ++c.local_readers_node;
        if (d.bytes.ssd > 0) ++c.ssd_readers_node;
        if (d.bytes.remote > 0) ++c.remote_readers_node;
        if (d.bytes.pfs > 0) {
          ++c.pfs_readers_node;
          ++base.pfs_readers_cluster;
        }
      }
    }
    for (auto& c : node_contention) {
      c.pfs_readers_cluster = std::max<std::uint32_t>(base.pfs_readers_cluster, 1);
      c.local_readers_node = std::max<std::uint32_t>(c.local_readers_node, 1);
      c.ssd_readers_node = std::max<std::uint32_t>(c.ssd_readers_node, 1);
      c.remote_readers_node = std::max<std::uint32_t>(c.remote_readers_node, 1);
      c.pfs_readers_node = std::max<std::uint32_t>(c.pfs_readers_node, 1);
    }

    // ---- 3. per-node thread decisions + ground-truth stage times
    Seconds t_max = 0.0;
    Seconds t_min = std::numeric_limits<Seconds>::infinity();
    bool loading_bottleneck = false;

    for (auto& node : nodes_) {
      const auto& contention = node_contention[node->id];
      const auto decision = decide_threads(job, demands[node->id], contention);

      // DES loading mode: emergent per-GPU load times from the fetch
      // replay (shared tier resources) replace the Eq. 1 pricing below.
      sim::ReplayResult replay;
      if (config_.des_loading) {
        std::vector<sim::GpuWork> work(gpus);
        for (GpuId g = 0; g < gpus; ++g) {
          work[g].fetches = std::move(fetch_lists[node->id][g]);
          work[g].threads =
              std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
                                             decision.load_threads[g] + 0.5));
        }
        replay = sim::replay_node_iteration(work, storage_->params(),
                                            contention.pfs_readers_cluster);
      }
      if (plan_iter_ != nullptr) {
        auto& node_plan = plan_iter_->nodes[node->id];
        node_plan.preproc_threads =
            static_cast<std::uint32_t>(decision.preproc_threads_per_gpu + 0.5);
        node_plan.load_threads.assign(decision.load_threads.size(), 0);
        for (std::size_t j = 0; j < decision.load_threads.size(); ++j) {
          node_plan.load_threads[j] =
              std::max<std::uint32_t>(1, static_cast<std::uint32_t>(decision.load_threads[j] + 0.5));
        }
      }

      double load_sum = 0.0;
      Seconds max_pipeline = 0.0;
      Seconds node_load_max = 0.0;
      Seconds node_preproc_max = 0.0;
      Seconds node_train_max = 0.0;
      // Tier decomposition of the node's slowest load (traced so the
      // analyzer can reconstruct the Fig. 3 fetch-tier shares).
      struct TierSeconds {
        Seconds local = 0.0, ssd = 0.0, remote = 0.0, pfs = 0.0;
      } node_tier;
      const bool burst =
          pfs_burst(preset.seed, slot, node->id, preset.noise.burst_probability);

      for (GpuId g = 0; g < gpus; ++g) {
        auto& gpu_record = record.gpus[flat_gpu_rank({node->id, g}, gpus)];
        const auto& demand = demands[node->id][g];
        const double threads = decision.load_threads[g];
        load_sum += threads;

        auto breakdown = storage_->load_time_breakdown(
            demand.bytes, storage::ThreadAlloc::uniform(threads), contention);
        const double noise =
            io_noise(preset.seed, slot, node->id, g, preset.noise.io_sigma);
        const double numa = numa_factor();
        breakdown.local *= numa;
        Seconds load;
        if (config_.des_loading) {
          // Emergent base time; noise/bursts scale the network-bound share.
          const Seconds base_load = replay.gpu_load_time[g];
          const Bytes slow_bytes = demand.bytes.remote + demand.bytes.pfs;
          const double slow_fraction =
              demand.bytes.total() > 0
                  ? static_cast<double>(slow_bytes) / static_cast<double>(demand.bytes.total())
                  : 0.0;
          double factor = 1.0 + slow_fraction * (noise - 1.0);
          if (burst) factor *= 1.0 + slow_fraction * (preset.noise.burst_multiplier - 1.0);
          load = base_load * factor;
        } else {
          load = breakdown.local + breakdown.ssd +
                 (breakdown.remote + breakdown.pfs) * noise;
          if (burst) {
            load = breakdown.local + breakdown.ssd +
                   (breakdown.remote + breakdown.pfs) * noise * preset.noise.burst_multiplier;
          }
        }
        const double preproc_noise =
            io_noise(preset.seed, slot, node->id, g + 1024, preset.noise.preproc_sigma);
        const bool on_gpu = config_.strategy.gpu_preprocessing;
        const Seconds preproc =
            (on_gpu ? preproc_truth_->gpu_batch_time(demand.bytes.total(), demand.samples)
                    : preproc_truth_->batch_time(decision.preproc_threads_per_gpu,
                                                 demand.bytes.total(), demand.samples) *
                          numa) *
            preproc_noise;
        Seconds train = job.trainer.iteration_time(preset.seed, slot, node->id, g);
        // GPU-side preprocessing serializes with the forward/backward pass
        // on the same device, so it stretches the training stage instead
        // of the CPU pipeline.
        if (on_gpu) train += preproc;

        gpu_record.load = load;
        gpu_record.preproc = preproc;
        gpu_record.train = train;
        gpu_record.load_threads = threads;
        gpu_record.preproc_threads = decision.preproc_threads_per_gpu;

        const Seconds pipeline = on_gpu ? load : load + preproc;
        const Seconds gpu_time = std::max(pipeline, train);
        if (pipeline > train) loading_bottleneck = true;
        t_max = std::max(t_max, gpu_time);
        t_min = std::min(t_min, gpu_time);
        max_pipeline = std::max(max_pipeline, pipeline);
        if (load > node_load_max) {
          node_load_max = load;
          if (trace.on) {
            // Decompose the slowest GPU's load exactly as billed above; in
            // DES mode the analytic components only set the proportions.
            const double slow_noise =
                burst ? noise * preset.noise.burst_multiplier : noise;
            node_tier = {breakdown.local, breakdown.ssd, breakdown.remote * slow_noise,
                         breakdown.pfs * slow_noise};
            const Seconds analytic =
                node_tier.local + node_tier.ssd + node_tier.remote + node_tier.pfs;
            if (config_.des_loading) {
              const double rescale = analytic > 0.0 ? load / analytic : 0.0;
              node_tier.local *= rescale;
              node_tier.ssd *= rescale;
              node_tier.remote *= rescale;
              node_tier.pfs *= rescale;
              if (analytic <= 0.0) node_tier.local = load;
            }
          }
        }
        node_preproc_max = std::max(node_preproc_max, preproc);
        node_train_max = std::max(node_train_max, train);
        samples_done += demand.samples;
      }
      if (trace.on) {
        // Slowest-GPU stage spans on the node's virtual tracks: the
        // load→preproc chain on the pipeline track, training on its own.
        auto& tracer = telemetry::Tracer::instance();
        const auto io_track = trace.io_tracks[node->id];
        Bytes node_bytes = 0;
        for (const auto& d : demands[node->id]) node_bytes += d.bytes.total();
        tracer.complete_at(telemetry::Category::kPipeline, trace.name_load, io_track,
                           trace_cursor, trace_cursor + node_load_max, node_bytes);
        if (!config_.strategy.gpu_preprocessing) {
          tracer.complete_at(telemetry::Category::kPipeline, trace.name_preproc, io_track,
                             trace_cursor + node_load_max,
                             trace_cursor + node_load_max + node_preproc_max);
        }
        tracer.complete_at(telemetry::Category::kPipeline, trace.name_train,
                           trace.gpu_tracks[node->id], trace_cursor,
                           trace_cursor + node_train_max);
        tracer.counter_at(telemetry::Category::kPipeline, trace.name_load_threads, io_track,
                          trace_cursor, load_sum);
        tracer.counter_at(telemetry::Category::kCache, trace.name_cache_used, io_track,
                          trace_cursor, static_cast<double>(node->cache->memory().used()));
        // Slowest-GPU fetch-tier decomposition (seconds) and this node's
        // per-iteration tier hit counts, for the analyzer's Fig. 3 shares
        // and windowed hit-ratio series.
        tracer.counter_at(telemetry::Category::kPipeline, trace.name_fetch_local, io_track,
                          trace_cursor, node_tier.local);
        tracer.counter_at(telemetry::Category::kPipeline, trace.name_fetch_ssd, io_track,
                          trace_cursor, node_tier.ssd);
        tracer.counter_at(telemetry::Category::kPipeline, trace.name_fetch_remote, io_track,
                          trace_cursor, node_tier.remote);
        tracer.counter_at(telemetry::Category::kPipeline, trace.name_fetch_pfs, io_track,
                          trace_cursor, node_tier.pfs);
        std::uint64_t hits_local = 0, hits_ssd = 0, hits_remote = 0, miss_pfs = 0;
        for (GpuId g = 0; g < gpus; ++g) {
          const auto& gpu_record = record.gpus[flat_gpu_rank({node->id, g}, gpus)];
          hits_local += gpu_record.local_hits;
          hits_ssd += gpu_record.ssd_hits;
          hits_remote += gpu_record.remote_hits;
          miss_pfs += gpu_record.pfs_misses;
        }
        tracer.counter_at(telemetry::Category::kCache, trace.name_hits_local, io_track,
                          trace_cursor, static_cast<double>(hits_local));
        tracer.counter_at(telemetry::Category::kCache, trace.name_hits_ssd, io_track,
                          trace_cursor, static_cast<double>(hits_ssd));
        tracer.counter_at(telemetry::Category::kCache, trace.name_hits_remote, io_track,
                          trace_cursor, static_cast<double>(hits_remote));
        tracer.counter_at(telemetry::Category::kCache, trace.name_miss_pfs, io_track,
                          trace_cursor, static_cast<double>(miss_pfs));
      }
      node->last_max_pipeline = max_pipeline;
      node->last_load_threads = load_sum;
      thread_usage_load_ += load_sum;
      thread_usage_preproc_ +=
          decision.preproc_threads_per_gpu * static_cast<double>(gpus);
      ++thread_usage_samples_;
    }

    // ---- 4. all-reduce barrier across the cluster
    record.duration = t_max;
    record.t_max = t_max;
    record.t_min = t_min;
    record.imbalanced = (t_max - t_min) > preset.imbalance_threshold * record.duration;
    record.loading_bottleneck = loading_bottleneck;
    for (auto& gpu_record : record.gpus) {
      gpu_record.idle = record.duration - gpu_record.train;
    }

    if (trace.on) {
      auto& tracer = telemetry::Tracer::instance();
      for (const auto& node : nodes_) {
        tracer.complete_at(telemetry::Category::kPipeline, trace.name_iteration,
                           trace.io_tracks[node->id], trace_cursor,
                           trace_cursor + record.duration, slot);
      }
      // Cluster-level Eq. 2-3 signals: the analyzer reconstructs the
      // per-iteration gap series and the imbalanced fraction from these
      // without re-deriving per-GPU times.
      tracer.counter_at(telemetry::Category::kPipeline, trace.name_t_max,
                        trace.cluster_track, trace_cursor, t_max);
      tracer.counter_at(telemetry::Category::kPipeline, trace.name_t_min,
                        trace.cluster_track, trace_cursor, t_min);
      if (record.imbalanced) {
        tracer.instant_at(telemetry::Category::kPipeline, trace.name_imbalanced,
                          trace.cluster_track, trace_cursor, slot);
      }
    }

    // Registry signals sampled by the live monitor's heartbeat thread.
    LOBSTER_METRIC_COUNT("pipeline.iterations", 1);
    if (record.imbalanced) LOBSTER_METRIC_COUNT("pipeline.imbalanced_iterations", 1);
    LOBSTER_METRIC_GAUGE("pipeline.gap_frac",
                         record.duration > 0.0 ? (t_max - t_min) / record.duration : 0.0);
    {
      Bytes consumed = 0;
      for (const auto& gpu_record : record.gpus) consumed += gpu_record.bytes.total();
      LOBSTER_METRIC_COUNT("pipeline.bytes_consumed", consumed);
    }

    // ---- 5. post-iteration cache maintenance + prefetching
    for (auto& node : nodes_) {
      // Sweep evictions and prefetch-plan events stamp at iteration end.
      const telemetry::VirtualTimeScope vt_scope(
          trace.on ? trace.io_tracks[node->id] : 0, trace_cursor + record.duration);
      node->cache->unpin_all();
      if (config_.strategy.reuse_sweep) reuse_sweep(job, *node, epoch, h);
      storage::TierBytes fetched;
      for (const auto& d : demands[node->id]) {
        fetched.remote += d.bytes.remote;
        fetched.pfs += d.bytes.pfs;
      }
      prefetch(job, *node, epoch, h, record.duration, fetched, node->last_load_threads);
      node->cache->publish_metrics();
    }

    trace_cursor += record.duration;
    metrics[job_index].add(std::move(record));
  }

  SimulationResult result;
  result.iterations_per_epoch = I;
  for (const auto& node : nodes_) {
    result.node_cache_stats.push_back(node->cache->memory_stats());
    result.node_ssd_stats.push_back(node->cache->ssd_stats());
  }
  Seconds total_time = 0.0;
  for (auto& job_metrics : metrics) {
    job_metrics.set_cache_stats(result.node_cache_stats);
    total_time += job_metrics.total_time();
  }
  if (total_time > 0.0) result.samples_per_second = static_cast<double>(samples_done) / total_time;
  result.metrics = std::move(metrics.front());
  result.other_job_metrics.assign(std::make_move_iterator(metrics.begin() + 1),
                                  std::make_move_iterator(metrics.end()));
  if (thread_usage_samples_ > 0) {
    result.mean_load_threads =
        thread_usage_load_ / static_cast<double>(thread_usage_samples_);
    result.mean_preproc_threads =
        thread_usage_preproc_ / static_cast<double>(thread_usage_samples_);
  }
  return result;
}

SimulationResult simulate(const ExperimentPreset& preset, const LoaderStrategy& strategy,
                          std::uint32_t detail_epoch_lo, std::uint32_t detail_epoch_hi) {
  SimulationConfig config;
  config.preset = preset;
  config.strategy = strategy;
  config.detail_epoch_lo = detail_epoch_lo;
  config.detail_epoch_hi = detail_epoch_hi;
  TrainingSimulator simulator(std::move(config));
  return simulator.run();
}

}  // namespace lobster::pipeline
