// Online plan executor (§4.5).
//
// Interprets a runtime::Plan for one node with *real* threads: per-GPU
// claim cursors over each GPU's minibatch, a resizable loading pool whose
// size follows the plan's per-iteration thread assignment, a preprocessing
// pool, plan-driven cache maintenance (prefetches and evictions), and an
// optional distribution manager for remote fetches. Payloads are
// materialized and verified end-to-end, so the executor proves the
// enforcement machinery — claim cursors, pool resizing, distributed fetches,
// plan bookkeeping — delivers every sample exactly once and in time.
//
// Hot-path concurrency (DESIGN.md §8): each GPU's minibatch is one sample
// span with one atomic chunk cursor. Drain workers claim 32-sample chunks
// from their home GPU's cursor (stealing from the other GPUs' cursors once
// it runs dry) and classify each sample themselves, so no index is handed
// out twice and exactly-once holds by construction. The resident-sample set
// is striped (no global store mutex), accounting is worker-local and merged
// once per task, and remote misses are routed to the directory-recorded
// holder in O(1). Every miss takes one path, execute_batch, in re-route
// rounds that scatter, then gather: a multi-get envelope is posted to every
// holder before any reply is awaited, the batched PFS materialize runs
// while they are in flight, and samples whose holder timed out, was down
// or sent corrupt bytes move on to their next holder, else the PFS. Plan prefetches are not
// per-sample tasks: they are cut into the same 32-sample chunks and each
// chunk runs that path on the loading pool, overlapped with the next
// iteration's enqueue.
//
// Stage timings are *accounted* in virtual time rather than slept, so
// executor tests run in milliseconds: each GPU's tier bytes are priced by
// core::flat_stage_times, the flat-rate case of Eq. 1. The performance
// story lives in the pipeline simulator.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "common/striped_set.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "core/feedback_balancer.hpp"
#include "core/load_balance_config.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "metrics/throughput_window.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/plan.hpp"
#include "sim/capacity_profile.hpp"
#include "storage/hierarchy.hpp"

namespace lobster::runtime {

class IterationWatchdog;

/// Called at the top of every iteration (before enqueue) with the global
/// iteration id, the previous iteration's per-GPU measurements (empty on the
/// first call), and a mutable RebalancePlan. Fault harnesses hang
/// FaultPlan::on_iteration here so "kill node 2 at iteration 5" fires at a
/// deterministic point; balancer harnesses feed the feedback through a
/// FeedbackBalancer (or RebalanceBarrier) and fill the plan — an active plan
/// whose quotas cover the cluster re-splits this iteration's global batch
/// and overrides the static per-queue thread counts.
using IterationHook =
    std::function<void(IterId, const core::IterationFeedback&, core::RebalancePlan&)>;

struct ExecutorConfig {
  NodeId node = 0;
  /// Shared load-balance knob block (pool cap, thread budget — the same
  /// fields Algorithm 1 and the feedback balancer read). The pool
  /// cap stops oversubscribing physical cores; tests pin it explicitly to
  /// force real multi-threaded drains regardless of the host.
  core::LoadBalanceConfig balance;
  Seconds t_train = 13e-3;
  /// Verify each KV-tier hit before delivering it; a failing entry is
  /// evicted and re-fetched. Peer bytes are always verified once, inside
  /// the distribution manager's fetch round, whatever this says.
  bool verify_payloads = true;
  /// Iteration-indexed capacity schedule for THIS node (scale_at(iter)):
  /// thermal throttling, co-tenant interference, a degraded NIC. Scales the
  /// virtual-time tier and preprocessing rates, so a throttled node's
  /// measured per-GPU throughput drops exactly as a slow node's would —
  /// the signal the feedback balancer closes the loop on. Empty = full speed.
  sim::CapacityProfile capacity;
  IterationHook iteration_hook;
  /// Checkpoint hook (DESIGN.md §13), polled at every iteration boundary —
  /// after iteration h's delivery fully landed, before h+1 touches the tier
  /// (the crash-consistency point: there is never a half-delivered
  /// iteration to reconcile). Return true to report that a checkpoint was
  /// cut. The executor brackets the call with a watchdog pause, so a slow
  /// checkpoint (file I/O) cannot fire a spurious stall or skew the
  /// trailing-median deadline.
  std::function<bool(IterId boundary)> checkpoint_hook;
};

struct IterationExecution {
  IterId iter = 0;
  std::uint32_t load_pool_size = 0;     ///< enforced loading threads
  std::uint32_t preproc_pool_size = 0;  ///< enforced preprocessing threads
  std::uint32_t demand_requests = 0;
  std::uint32_t prefetch_requests = 0;
  /// Always 0: there is no bounded queue to overflow. Kept for report
  /// consumers that still read it.
  std::uint32_t spilled_requests = 0;
  std::uint32_t local_hits = 0;
  std::uint32_t remote_fetches = 0;
  std::uint32_t pfs_fetches = 0;
  /// Samples whose holder timed out, was down or sent corrupt bytes, and
  /// that were re-routed (to another holder or the PFS) instead of failing;
  /// each counts once however many holders it tries.
  std::uint32_t degraded_fetches = 0;
  Seconds virtual_load = 0.0;     ///< modeled max per-GPU loading time
  Seconds virtual_preproc = 0.0;  ///< modeled max per-GPU preprocessing time
  Seconds virtual_duration = 0.0; ///< max(t_train, load + preproc)
  double capacity_scale = 1.0;    ///< config.capacity scale in force this iteration
  bool rebalanced = false;        ///< an active RebalancePlan drove this iteration
  /// Measured wall-clock duration of the iteration body (enqueue through
  /// preproc join). Real elapsed time — the denominator the causal span
  /// analysis compares its degraded-fetch overhead attribution against.
  Seconds wall_s = 0.0;
};

struct ExecutionReport {
  std::vector<IterationExecution> iterations;
  std::uint64_t samples_delivered = 0;
  /// Bad payloads *delivered* — with quarantine in place this must be 0;
  /// intercepted ones land in quarantined_payloads instead.
  std::uint64_t payload_failures = 0;
  /// Samples claimed beyond / short of each GPU's span, summed over GPUs.
  /// Chunks are claimed by one atomic cursor per span, so both are 0 by
  /// construction; they are the cross-check, not the mechanism.
  std::uint64_t duplicate_deliveries = 0;
  std::uint64_t lost_deliveries = 0;
  std::uint64_t spilled_requests = 0;   ///< always 0 (see IterationExecution)
  std::uint64_t degraded_fetches = 0;   ///< re-routed off a failed holder, once each
  /// Payloads that failed verification and were intercepted (KV entry
  /// evicted / corrupt reply re-routed / re-materialized from the PFS).
  /// Recoverable by design, so not part of clean().
  std::uint64_t quarantined_payloads = 0;
  /// Checkpoints the checkpoint_hook reported cut at iteration boundaries.
  std::uint64_t checkpoints = 0;
  Seconds virtual_total = 0.0;

  bool clean() const noexcept {
    return payload_failures == 0 && duplicate_deliveries == 0 && lost_deliveries == 0;
  }
};

class PlanExecutor {
 public:
  /// `manager` (optional) serves remote fetches; without it remote-planned
  /// samples fall back to the PFS path.
  PlanExecutor(ExecutorConfig config, const data::SampleCatalog& catalog,
               const data::EpochSampler& sampler, const Plan& plan,
               DistributionManager* manager = nullptr);

  /// Wires in the remote-fetch path (may be set after construction, before
  /// run(), to break the executor <-> manager construction cycle).
  void set_manager(DistributionManager* manager) noexcept { manager_ = manager; }

  /// Alternative remote tier (§2): a cluster KV store keyed by sample id.
  /// When set, remote fetches query the store first (before the manager),
  /// and every fetched sample is published to it.
  void set_kv_store(cache::KvStore* store) noexcept { kv_store_ = store; }

  /// Residency directory for remote-fetch routing (§4.4: deterministic
  /// prefetching makes residency a global property). When set, a remote miss
  /// asks the directory-recorded holder directly in O(1). Without a
  /// directory there is no peer routing at all — remote-planned samples are
  /// served by the KV tier (if wired) or fall to the PFS. (The historical
  /// fallback of polling every peer in rank order is gone: it hid O(world)
  /// traffic behind a default, and every production path wires a directory.)
  /// The residency *map* must not be mutated while run() is in flight; the
  /// executor itself only flips the directory's atomic down-mask
  /// (mark_node_down) when a holder stops answering, which is safe under
  /// concurrent queries.
  void set_directory(cache::CacheDirectory* directory) noexcept { directory_ = directory; }

  /// Iteration watchdog (DESIGN.md §9): when set, run() brackets every
  /// iteration with begin_iteration/end_iteration so the watchdog's
  /// deadline thread can flag iterations that exceed k× the trailing
  /// median wall-clock duration.
  void set_watchdog(IterationWatchdog* watchdog) noexcept { watchdog_ = watchdog; }

  /// Executes every iteration of the plan for this node.
  ExecutionReport run();

  /// Residency set after the run (for invariant checks in tests).
  std::unordered_set<SampleId> resident_samples() const;

  /// Previous-iteration measurements handed to the iteration hook (exposed
  /// for tests; valid during/after run()).
  const core::IterationFeedback& last_feedback() const noexcept { return feedback_; }

  /// True if `sample` is currently resident (thread-safe; used by the
  /// distribution manager's has_sample callback).
  bool has_sample(SampleId sample) const;

 private:
  struct GpuAccounting {
    storage::TierBytes bytes;
    std::uint32_t local_hits = 0;
    std::uint32_t remote_fetches = 0;
    std::uint32_t pfs_fetches = 0;
    std::uint32_t degraded_fetches = 0;
    std::uint32_t claimed = 0;  ///< demand samples claimed from this GPU's span

    void merge(const GpuAccounting& other) noexcept {
      bytes.local += other.bytes.local;
      bytes.remote += other.bytes.remote;
      bytes.pfs += other.bytes.pfs;
      local_hits += other.local_hits;
      remote_fetches += other.remote_fetches;
      pfs_fetches += other.pfs_fetches;
      degraded_fetches += other.degraded_fetches;
      claimed += other.claimed;
    }
  };

  /// Delivers one claimed chunk of a GPU's span: resident samples are
  /// local hits accounted inline; the rest are collected into `misses` and
  /// fetched through execute_batch. Everything lands in `accounting`, the
  /// chunk owner's slot.
  void drain_chunk(const SampleId* first, const SampleId* last, IterId iter,
                   GpuAccounting& accounting, std::vector<SampleId>& misses);

  /// The one miss path (DESIGN.md §8, §9), for a drained chunk's misses or
  /// a prefetch chunk, all of iteration `iter`: probes the KV tier per
  /// sample, batch-materializes cold misses from the PFS, and sends the
  /// samples with a directory-recorded holder out in re-route rounds. A
  /// holder's samples go out in slices, one multi-get envelope each, sized
  /// so the reply fits one arena class. Each round posts the first slice of
  /// every holder (DistributionManager::post), materializes the PFS batch,
  /// then collects the envelopes in the order they were posted; a holder's
  /// next slice is posted once its previous one is collected, so at most
  /// one envelope per holder is in flight, and PFS work found meanwhile is
  /// materialized while envelopes remain in flight. As an envelope is collected, a
  /// timeout or peer-down marks its holder down and a corrupt sample is
  /// quarantined; either way the holder joins that sample's exclude mask,
  /// the sample counts as degraded once, and after the round it moves to
  /// its next holder, or to the PFS when none is left. A not-found or shutdown goes
  /// straight to the PFS. A batch that routes any sample to a peer roots
  /// one kFetch span tree (DESIGN.md §11). Traced and untraced runs take
  /// the same branches.
  void execute_batch(const SampleId* first, const SampleId* last, IterId iter,
                     GpuAccounting& accounting);

  ExecutorConfig config_;
  const data::SampleCatalog& catalog_;
  const data::EpochSampler& sampler_;
  const Plan& plan_;
  DistributionManager* manager_;
  cache::KvStore* kv_store_ = nullptr;
  cache::CacheDirectory* directory_ = nullptr;
  IterationWatchdog* watchdog_ = nullptr;

  /// Resident-sample set, striped so loading threads probing or inserting
  /// different samples never contend (the old single store mutex serialized
  /// every classification probe and every fetch).
  StripedSet<SampleId> store_{64};

  /// Per-GPU throughput history (metrics::ThroughputWindow — the same
  /// derivation the FairnessTracker and balancer use), published under
  /// executor.gpu/<flat rank>/throughput. Touched only by the run() thread.
  std::vector<metrics::ThroughputWindow> throughput_;
  core::IterationFeedback feedback_;

  std::atomic<std::uint64_t> payload_failures_{0};
  std::atomic<std::uint64_t> quarantined_{0};
};

}  // namespace lobster::runtime
