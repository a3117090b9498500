// The holistic performance model of §4.3 (Table 1, Equations 1–3).
//
// Composes the storage hierarchy (Eq. 1: per-tier load time under a thread
// allocation) with the preprocessing portfolio (§4.1) and a constant
// training-stage duration, and exposes the two objectives:
//
//   Eq. 2  t_dif(G)  = T_L + T_P − T_train            (per-GPU bottleneck gap)
//   Eq. 3  imbalance = max_j T^{h,i,j} − min_j T^{h,i,j}   (node-level gap)
//
// The executor's and the cluster model's virtual time use Eq. 1's flat-rate
// special case, flat_stage_times, defined once at the end of this header.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/preproc_model.hpp"
#include "storage/hierarchy.hpp"

namespace lobster::core {

/// One GPU's demand for an iteration: bytes by serving tier plus batch shape.
struct GpuDemand {
  storage::TierBytes bytes;
  std::uint32_t samples = 0;        ///< |B|
  std::uint64_t pending_requests = 0;  ///< queue depth, for proportional split
};

class PerfModel {
 public:
  PerfModel(const storage::StorageModel& storage_model, const PreprocModelPortfolio& preproc,
            Seconds t_train);

  /// Eq. 1 — load time of one GPU's batch with `threads` loading threads
  /// (applied uniformly per tier, as Algorithm 1 searches a single per-GPU
  /// count) under the given tier contention.
  Seconds load_time(const GpuDemand& demand, double threads,
                    const storage::Contention& contention = {}) const;

  /// Preprocessing time of the batch with `preproc_threads` workers.
  Seconds preproc_time(const GpuDemand& demand, double preproc_threads) const;

  /// Eq. 2 inner expression: (T_L + T_P) − T_train. Positive values mean
  /// the pipeline stalls the GPU.
  Seconds t_dif(const GpuDemand& demand, double load_threads,
                double preproc_threads, const storage::Contention& contention = {}) const;

  /// Effective iteration time of one GPU: training fully overlaps loading +
  /// preprocessing of the next batch, so the GPU is bound by the slower of
  /// the two.
  Seconds gpu_iteration_time(const GpuDemand& demand, double load_threads,
                             double preproc_threads,
                             const storage::Contention& contention = {}) const;

  /// Eq. 3 — max-min gap of per-GPU iteration times under an allocation.
  Seconds node_imbalance(const std::vector<GpuDemand>& demands,
                         const std::vector<double>& load_threads,
                         double preproc_threads,
                         const storage::Contention& contention = {}) const;

  Seconds t_train() const noexcept { return t_train_; }
  const storage::StorageModel& storage_model() const noexcept { return storage_; }
  const PreprocModelPortfolio& preproc_portfolio() const noexcept { return preproc_; }

 private:
  const storage::StorageModel& storage_;
  const PreprocModelPortfolio& preproc_;
  Seconds t_train_;
};

/// Per-tier read rates and the preprocessing rate, in bytes/s, of Eq. 1's
/// flat-rate special case.
struct FlatRates {
  double local_bps;    ///< node-local cache (DRAM or NVMe)
  double remote_bps;   ///< a peer's cache over the interconnect
  double pfs_bps;      ///< the parallel file system
  double preproc_bps;  ///< decode + augment
};

/// The rates the executor and the cluster model price virtual time with:
/// 10 GB/s local, 2 GB/s remote, 0.8 GB/s PFS, 0.9 GB/s preprocessing. This
/// is Eq. 1 with every tier linear in threads: no knee, no per-request
/// latency and no contention cap. That is why it is not a StorageModel
/// preset, whose curves have all three.
inline constexpr FlatRates kFlatRates{10e9, 2.0e9, 0.8e9, 0.9e9};

/// One GPU's modeled loading and preprocessing time for an iteration.
struct StageTimes {
  Seconds load = 0.0;
  Seconds preproc = 0.0;
};

/// Eq. 1 at flat rates, the one pricing of executor and cluster virtual
/// time. Load time is the tier reads over `load_threads` (SSD bytes are
/// node-local and read at the local rate); preprocessing time is every byte
/// over `preproc_threads`. `capacity_scale` scales both rates (a throttled
/// node). At 1, 1, 1 the two are the plain per-tier sums, exactly.
StageTimes flat_stage_times(const storage::TierBytes& bytes, const FlatRates& rates,
                            double load_threads, double preproc_threads,
                            double capacity_scale);

}  // namespace lobster::core
