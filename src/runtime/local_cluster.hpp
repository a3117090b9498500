// One local cluster: the §4.5 online runtime's per-node wiring, once.
//
// The paper runs one plan executor and one distribution manager per node
// over MPI. LocalCluster is that wiring inside one process: it owns the
// message bus, the residency directory and one DistributionManager per
// rank, all sized from plan.cluster_nodes, and every rank takes one of two
// roles before run():
//   - executing (execute): a PlanExecutor built from the caller's
//     ExecutorConfig, wired to its rank's manager and the directory; the
//     manager serves what the executor holds (PlanExecutor::has_sample);
//   - serve-only (serve): the manager serves the caller's `holds`
//     predicate; a rejoin inventory source goes on the manager serve()
//     returns (set_inventory_source).
// Everything else attaches through the accessors: a comm::FaultPlan through
// bus().set_fault_plan, a KV store, watchdog or RecoveryManager through
// executor(r) and manager(r), hooks through ExecutorConfig.
//
// Lifetimes: the catalog, sampler and plan, and any FaultPlan attached to
// the bus, must outlive the cluster; the destructor stops the managers
// through the bus. Callbacks set on a manager (set_on_breaker_close) must be
// set before run(), which starts the managers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/directory.hpp"
#include "comm/bus.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan.hpp"

namespace lobster::runtime {

/// A hand-made plan of `epochs` x `iterations` iterations: every node gives
/// each of its `gpus` GPUs two loading threads and runs one preprocessing
/// thread, and nothing is prefetched or evicted. Harnesses append their own
/// prefetches and evictions to what it returns.
Plan uniform_plan(std::uint16_t nodes, std::uint16_t gpus, std::uint32_t epochs,
                  std::uint32_t iterations, std::uint32_t batch, std::uint64_t seed);

class LocalCluster {
 public:
  LocalCluster(const data::SampleCatalog& catalog, const data::EpochSampler& sampler,
               const Plan& plan, FetchPolicy policy = {});
  /// Stops every manager.
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Gives `rank` the executing role: a PlanExecutor built from `config`
  /// (its node set to `rank`). Throws std::logic_error if `rank` already
  /// has a role, std::out_of_range if the plan has no such node.
  PlanExecutor& execute(comm::Rank rank, ExecutorConfig config);

  /// Gives `rank` the serve-only role: its manager answers peers for the
  /// samples `holds` accepts (thread-safe). Throws as execute does.
  DistributionManager& serve(comm::Rank rank, std::function<bool(SampleId)> holds);

  /// Starts the managers, runs every executing rank on its own thread and
  /// joins them all; only then rethrows the first exception a rank threw.
  /// Returns the reports indexed by rank, empty for serve-only ranks.
  /// Throws std::logic_error if a rank has no role, or on a second call.
  std::vector<ExecutionReport> run();

  comm::MessageBus& bus() noexcept { return bus_; }
  cache::CacheDirectory& directory() noexcept { return directory_; }
  DistributionManager& manager(comm::Rank rank) const;
  /// Throws std::logic_error unless `rank` is executing.
  PlanExecutor& executor(comm::Rank rank) const;

 private:
  void claim_role(comm::Rank rank) const;

  const data::SampleCatalog& catalog_;
  const data::EpochSampler& sampler_;
  const Plan& plan_;
  FetchPolicy policy_;
  comm::MessageBus bus_;
  cache::CacheDirectory directory_;
  std::vector<std::unique_ptr<PlanExecutor>> executors_;  ///< null: serve-only
  std::vector<std::unique_ptr<DistributionManager>> managers_;  ///< null: no role yet
  bool ran_ = false;
};

}  // namespace lobster::runtime
