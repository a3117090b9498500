// The unified load-balance knob block.
//
// Thread-count, batch-quota and pool-cap knobs used to be re-declared in
// three places — core::AllocatorConfig (Algorithm 1), runtime::ExecutorConfig
// (pool caps) and pipeline::SimulationConfig (steal budget) —
// and the per-iteration feedback balancer would have needed to reach into
// all of them. They now live here once; the three structs embed a
// LoadBalanceConfig instead of re-declaring fields, and the balancer drives
// exactly this block.
//
// validate() is the single gate for every consumer: the ThreadAllocator,
// the PlanExecutor and the FeedbackBalancer all reject a config that could
// produce a zero-thread split, a quota set that does not partition the
// global batch, or a pool cap smaller than the world it must serve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace lobster::core {

struct LoadBalanceConfig {
  // --- Loading-thread knobs (Algorithm 1, §4.2/§4.4) ---
  std::uint32_t total_load_threads = 16;  ///< T_L: per-node loading budget
  std::uint32_t min_threads_per_gpu = 1;  ///< ℓ_min floor per queue
  Seconds tau = 2e-3;                     ///< τ: |T_dif| considered "balanced"
  std::uint32_t balance_passes = 32;      ///< cap on Eq. 3 greedy moves
  /// Max §4.1-step-2 preprocessing→loading thread steals per iteration.
  std::uint32_t max_preproc_steals = 4;

  // --- Executor pool cap ---
  /// Ceiling on concurrent loader/preproc OS threads; 0 = hardware
  /// concurrency. The plan's per-GPU thread assignment is still enforced
  /// as drain-task shares and in the virtual-time model; the cap only stops
  /// oversubscribing physical cores.
  std::uint32_t max_pool_threads = 0;

  // --- Batch quotas (feedback balancer) ---
  /// Per-device (flat GPU rank, node-major) samples per iteration. Empty =
  /// the static strided split. When set, must have world_size entries and
  /// sum to batch_size.
  std::vector<std::uint32_t> batch_quotas;
  /// Global samples per iteration (sum of all quotas). 0 = unspecified;
  /// required when batch_quotas is set.
  std::uint32_t batch_size = 0;
  /// Flat GPU count N·M the quotas/caps must cover. 0 = unspecified (the
  /// world-dependent checks are skipped).
  std::uint32_t world_size = 0;

  /// Rejects zero-thread splits, quota sets that do not sum to the batch
  /// size, and pool caps below the world size. Cheap; call it at
  /// every construction boundary.
  [[nodiscard]] Status validate() const;
};

}  // namespace lobster::core
