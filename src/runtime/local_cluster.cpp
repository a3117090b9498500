#include "runtime/local_cluster.hpp"

#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/strfmt.hpp"

namespace lobster::runtime {

Plan uniform_plan(std::uint16_t nodes, std::uint16_t gpus, std::uint32_t epochs,
                  std::uint32_t iterations, std::uint32_t batch, std::uint64_t seed) {
  Plan plan;
  plan.cluster_nodes = nodes;
  plan.gpus_per_node = gpus;
  plan.epochs = epochs;
  plan.iterations_per_epoch = iterations;
  plan.batch_size = batch;
  plan.seed = seed;
  plan.iterations.resize(static_cast<std::size_t>(epochs) * iterations);
  for (std::size_t i = 0; i < plan.iterations.size(); ++i) {
    IterationPlan& iteration = plan.iterations[i];
    iteration.iter = i;
    iteration.nodes.resize(nodes);
    for (auto& node : iteration.nodes) {
      node.preproc_threads = 1;
      node.load_threads.assign(gpus, 2);
    }
  }
  return plan;
}

LocalCluster::LocalCluster(const data::SampleCatalog& catalog,
                           const data::EpochSampler& sampler, const Plan& plan,
                           FetchPolicy policy)
    : catalog_(catalog),
      sampler_(sampler),
      plan_(plan),
      policy_(policy),
      bus_(plan.cluster_nodes),
      directory_(plan.cluster_nodes),
      executors_(plan.cluster_nodes),
      managers_(plan.cluster_nodes) {}

LocalCluster::~LocalCluster() {
  // Before any executor goes: an executing rank's server still reads its
  // executor's resident set until stop() returns.
  for (auto& manager : managers_) {
    if (manager) manager->stop();
  }
}

void LocalCluster::claim_role(comm::Rank rank) const {
  if (managers_.at(rank)) {
    throw std::logic_error(strf("LocalCluster: rank %u already has a role", rank));
  }
}

PlanExecutor& LocalCluster::execute(comm::Rank rank, ExecutorConfig config) {
  claim_role(rank);
  config.node = rank;
  auto executor = std::make_unique<PlanExecutor>(config, catalog_, sampler_, plan_);
  PlanExecutor* raw = executor.get();
  managers_[rank] = std::make_unique<DistributionManager>(
      bus_.endpoint(rank), [raw](SampleId s) { return raw->has_sample(s); },
      [this](SampleId s) { return catalog_.sample_bytes(s); }, policy_);
  raw->set_manager(managers_[rank].get());
  raw->set_directory(&directory_);
  executors_[rank] = std::move(executor);
  return *raw;
}

DistributionManager& LocalCluster::serve(comm::Rank rank, std::function<bool(SampleId)> holds) {
  claim_role(rank);
  managers_[rank] = std::make_unique<DistributionManager>(
      bus_.endpoint(rank), std::move(holds),
      [this](SampleId s) { return catalog_.sample_bytes(s); }, policy_);
  return *managers_[rank];
}

DistributionManager& LocalCluster::manager(comm::Rank rank) const {
  if (!managers_.at(rank)) {
    throw std::logic_error(strf("LocalCluster: rank %u has no role", rank));
  }
  return *managers_[rank];
}

PlanExecutor& LocalCluster::executor(comm::Rank rank) const {
  if (!executors_.at(rank)) {
    throw std::logic_error(strf("LocalCluster: rank %u is not executing", rank));
  }
  return *executors_[rank];
}

std::vector<ExecutionReport> LocalCluster::run() {
  if (ran_) throw std::logic_error("LocalCluster: run() called twice");
  for (comm::Rank rank = 0; rank < managers_.size(); ++rank) {
    (void)manager(rank);  // throws for a rank without a role
  }
  ran_ = true;
  for (auto& manager : managers_) manager->start();
  std::vector<ExecutionReport> reports(executors_.size());
  std::mutex failure_mutex;
  std::exception_ptr failure;
  {
    std::vector<std::jthread> ranks;
    for (std::size_t rank = 0; rank < executors_.size(); ++rank) {
      if (!executors_[rank]) continue;
      ranks.emplace_back([&, rank] {
        try {
          reports[rank] = executors_[rank]->run();
        } catch (...) {
          const std::lock_guard lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      });
    }
  }  // joins every rank
  if (failure) std::rethrow_exception(failure);
  return reports;
}

}  // namespace lobster::runtime
