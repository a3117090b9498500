// Multi-tenant cluster driver (DESIGN.md §10, §13): many jobs, one shared
// I/O substrate.
//
// Runs a round-based lockstep simulation over the real runtime pieces:
// every scheduler round, (1) newly arrived jobs are submitted, (2) elastic
// jobs at an epoch boundary may grow or shrink their node block through a
// checkpoint-resize-restore cycle, (3) the JobManager admits what fits —
// under kFairSharePreemptive, evicting low-deficit running jobs (each cut
// into a crash-consistent checkpoint first) when a high-deficit waiter
// cannot backfill — (4) every running job executes ONE delivery round of
// its deterministic sampler stream against the SHARED cluster KV tier, and
// (5) the cluster's virtual clock advances by the slowest job's iteration
// time. PFS bandwidth is a cluster-wide resource: jobs reading the PFS in
// the same round divide it evenly, which is where inter-job interference
// (and slowdown) comes from.
//
// Delivery model (width-invariant cursor): each epoch delivers the FULL
// |D|-sample permutation; a job's progress is the pair (epoch, cursor),
// and one round delivers perm[cursor, cursor + B·W) where W is the job's
// CURRENT world size (block width × GPUs). Sample index q is served by
// local node (q mod W) / gpus — exactly the strided shard mapping of the
// static sampler when the width matches the spec — and the per-job
// delivery digest folds samples in permutation order, which is the same
// for every width. That is what makes preempt/resume/resize exact: a job
// restored at any width delivers the identical sample sequence an
// uninterrupted run would, and the digest proves it.
//
// Cross-job sharing: namespaces are minted per dataset fingerprint, so two
// jobs over the same dataset hit each other's published samples. Eviction
// consults a per-namespace data::MergedAccessOracle over every running job
// of that dataset, each job's FutureAccessOracle lifted onto the cluster
// timeline by JobWindowOracle. A preempted job's namespace stays acquired
// (its KV residency survives as a warm working set, evictable under
// pressure); its checkpoint carries the residency manifest so restore can
// re-home surviving entries onto the new block and count what was lost.
//
// Optionally runs each spec in isolation first (full PFS bandwidth, private
// KV) to establish the per-job fairness baseline — and the isolated
// delivery digest every checkpointed run must reproduce.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "cache/namespace.hpp"
#include "cluster/budget_arbiter.hpp"
#include "cluster/checkpoint.hpp"
#include "cluster/fairness.hpp"
#include "cluster/job.hpp"
#include "cluster/namespace_registry.hpp"
#include "cluster/scheduler.hpp"
#include "common/types.hpp"
#include "data/dataset.hpp"
#include "data/oracle.hpp"
#include "data/sampler.hpp"

namespace lobster::cluster {

/// Lifts one running job's FutureAccessOracle onto the cluster timeline so
/// per-namespace MergedAccessOracles can merge jobs admitted at different
/// rounds: the access of job-local iteration i is reported at cluster time
/// `admit_round + i + 1` on global node rank `block.first + local_node`.
/// The +1 keeps "accessed in the current round" representable: querying
/// strictly-after `current_round` returns this round's accesses at distance
/// 1, so imminence = reported_time - current_round - 1 (0 = needed now).
/// For a resumed job, `admit_round` is the EFFECTIVE offset — resume round
/// minus estimated completed iterations — so reported times stay on the
/// cluster clock across preemptions (approximate after a resize; the
/// oracle is an eviction heuristic, not a correctness input).
class JobWindowOracle final : public data::AccessOracle {
 public:
  JobWindowOracle(const data::FutureAccessOracle& inner, std::uint64_t admit_round,
                  NodeBlock block)
      : inner_(inner), offset_(admit_round + 1), block_(block) {}

  std::optional<data::Access> next_access(SampleId sample, IterId after) const override;
  std::optional<data::Access> next_access_on_node(SampleId sample, NodeId node,
                                                  IterId after) const override;
  IterId reuse_distance_on_node(SampleId sample, NodeId node, IterId now) const override;
  std::uint32_t remaining_uses_on_node(SampleId sample, NodeId node,
                                       IterId after) const override;
  bool needed_by_other_node(SampleId sample, NodeId node, IterId after) const override;

 private:
  const data::FutureAccessOracle& inner_;
  std::uint64_t offset_;
  NodeBlock block_;
};

/// Shared immutable all-zero payloads, at most one live buffer per size.
/// The cluster model prices bytes and never reads them, so every publish of
/// one size shares one buffer instead of allocating and zeroing its own.
/// The cache holds weak references: a buffer lives exactly as long as some
/// KV entry or caller holds it, so it never keeps more bytes alive than the
/// stores it feeds. One per run; not thread-safe.
class ZeroPayloads {
 public:
  /// A payload of `size` zero bytes, shared with every other live request
  /// of the same size.
  cache::KvStore::PayloadPtr get(Bytes size);

 private:
  std::unordered_map<Bytes, std::weak_ptr<const std::vector<std::byte>>> by_size_;
};

struct ClusterConfig {
  std::uint16_t nodes = 64;              ///< simulated cluster size (<= 64)
  SchedulerPolicy policy = SchedulerPolicy::kFairShare;
  PreemptionPolicy preemption;           ///< knobs for kFairSharePreemptive
  bool elastic_resize = true;            ///< epoch-boundary grow/shrink of elastic jobs
  Bytes kv_budget = 0;                   ///< global KV byte budget; 0 = unbounded
  double t_train_s = 4e-3;               ///< base per-iteration compute time
  std::uint64_t starvation_rounds = 64;  ///< queue/preempted wait that flags starvation
  std::uint64_t max_rounds = 1u << 20;   ///< safety valve for the round loop
  bool run_isolated_baselines = true;    ///< compute per-job slowdown baselines
};

/// Everything the fairness gates need about one job after the run.
struct JobOutcome {
  JobId id = kInvalidJob;
  std::string name;
  JobState state = JobState::kQueued;
  cache::NamespaceId ns = 0;
  bool shared_namespace = false;   ///< another job used the same dataset
  std::uint64_t submit_round = 0;
  std::uint64_t admit_round = 0;
  std::uint64_t finish_round = 0;
  std::uint64_t queue_wait_rounds = 0;
  std::uint64_t total_wait_rounds = 0;  ///< initial queue + preempted stretches
  double queue_wait_s = 0.0;
  double turnaround_s = 0.0;       ///< submit -> finish on the cluster clock
  double isolated_s = 0.0;         ///< run time alone (0 when baselines off)
  double slowdown = 0.0;           ///< turnaround_s / isolated_s
  bool starved = false;
  std::uint64_t iterations = 0;
  std::uint64_t samples_expected = 0;   ///< epochs x |D| (width-independent)
  std::uint64_t samples_delivered = 0;  ///< exactly-once gate: must match
  /// Order-sensitive digest of the delivered stream (permutation order);
  /// must equal the isolated run's digest across every preempt/resume/
  /// resize cycle — the byte-identity gate.
  std::uint64_t delivery_digest = 0;
  std::uint64_t isolated_digest = 0;    ///< 0 when baselines off
  bool digest_match = false;            ///< delivery_digest == isolated_digest
  std::uint32_t preemptions = 0;
  std::uint32_t resizes = 0;
  std::uint32_t grows = 0;
  std::uint32_t shrinks = 0;
  std::uint16_t final_width = 0;        ///< block width at finish
  std::uint64_t local_hits = 0;
  std::uint64_t kv_hits = 0;
  std::uint64_t pfs_reads = 0;
  Bytes pfs_bytes = 0;
  std::uint64_t isolated_pfs_reads = 0;
};

struct ClusterResult {
  std::vector<JobOutcome> jobs;
  std::uint64_t rounds = 0;
  double makespan_s = 0.0;
  std::uint64_t total_pfs_reads = 0;
  Bytes total_pfs_bytes = 0;
  std::uint64_t total_kv_hits = 0;
  std::uint64_t isolated_pfs_reads_sum = 0;
  std::uint64_t starvation_events = 0;
  double max_slowdown = 0.0;
  std::size_t peak_live_namespaces = 0;
  // Preemption & elasticity (DESIGN.md §13).
  std::uint64_t preemptions = 0;
  std::uint64_t resumes = 0;
  std::uint64_t resizes = 0;
  std::uint64_t checkpoints_cut = 0;
  Bytes checkpoint_bytes = 0;           ///< serialized bytes across all cuts
  std::uint64_t residency_restored = 0; ///< manifest entries re-homed on restore
  std::uint64_t residency_lost = 0;     ///< manifest entries evicted while preempted
  std::uint64_t digest_matches = 0;     ///< jobs whose digest equals isolated
  std::uint64_t digest_mismatches = 0;
  KvBudgetArbiter::Stats arbiter;
  cache::KvStore::Stats kv;
};

class ClusterRuntime {
 public:
  explicit ClusterRuntime(ClusterConfig config);
  ~ClusterRuntime();

  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  /// Registers a job; it arrives at spec.arrival_round. Call before run().
  JobId submit(JobSpec spec);

  /// Drives rounds until every submitted job is finished (or rejected).
  ClusterResult run();

  const FairnessTracker& fairness() const noexcept { return fairness_; }
  const NamespaceRegistry& namespaces() const noexcept { return registry_; }
  const JobManager& manager() const noexcept { return manager_; }

 private:
  struct RunningJob;

  std::shared_ptr<const data::SampleCatalog> catalog_for(const JobSpec& spec,
                                                         std::uint64_t fingerprint);
  bool budget_gate(const JobSpec& spec);
  void start_job(JobId id, std::uint64_t round);
  void finish_job(RunningJob& job, std::uint64_t round);
  void rebuild_merged(cache::NamespaceId ns);
  IterId imminence(SampleId key) const;

  /// Builds + serializes the crash-consistent checkpoint of a running job
  /// (the preempt hook and the resize cycle both go through here) and
  /// removes its block's residency entries from the directory — the block
  /// is about to be released or re-placed.
  std::vector<std::byte> cut_checkpoint(RunningJob& job);
  /// Preempt-hook body: cut_checkpoint + park the bytes for the resume.
  void checkpoint_job(JobId id, std::uint64_t round);
  /// Rebuilds a RunningJob from serialized checkpoint bytes on the block
  /// the manager just assigned, replaying surviving KV residency onto it.
  void restore_job(JobId id, std::uint64_t round, const std::vector<std::byte>& bytes);
  /// Epoch-boundary elastic pass: shrink under queue pressure, grow into
  /// idle capacity, via checkpoint-resize-restore.
  void try_elastic_resize(std::uint64_t round);

  /// One job, one round: walks the next cursor window of the epoch
  /// permutation against the shared tier, publishing PFS fetches through
  /// the arbiter and folding the delivery digest. Fills per-node byte
  /// demands; `job.last_n` is the window it will commit on advance.
  void collect_demands(RunningJob& job);

  ClusterConfig config_;
  ZeroPayloads payloads_;  ///< every PFS publish of the shared and isolated runs
  cache::KvStore kv_;
  cache::CacheDirectory directory_;
  NamespaceRegistry registry_;
  KvBudgetArbiter arbiter_;
  JobManager manager_;
  FairnessTracker fairness_;

  bool ran_ = false;

  std::unordered_map<std::uint64_t, std::shared_ptr<const data::SampleCatalog>> catalogs_;
  std::unordered_map<JobId, std::unique_ptr<RunningJob>> active_;
  /// Serialized checkpoints of preempted jobs, consumed on resume. Kept as
  /// wire bytes on purpose: every resume goes through the real
  /// serialize/deserialize path, so the format is exercised end to end.
  std::unordered_map<JobId, std::vector<std::byte>> checkpoints_;
  /// Per-namespace merged view of every running job's future accesses.
  struct NamespaceOracles {
    std::vector<const data::AccessOracle*> members;
    std::unique_ptr<data::MergedAccessOracle> merged;
  };
  std::unordered_map<cache::NamespaceId, NamespaceOracles> merged_;

  std::vector<JobOutcome> outcomes_;
  std::uint64_t round_ = 0;
  double clock_s_ = 0.0;
  std::uint64_t stat_checkpoints_ = 0;
  Bytes stat_checkpoint_bytes_ = 0;
  std::uint64_t stat_restored_ = 0;
  std::uint64_t stat_lost_ = 0;
};

}  // namespace lobster::cluster
