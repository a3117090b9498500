#include "core/perf_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace lobster::core {

PerfModel::PerfModel(const storage::StorageModel& storage_model,
                     const PreprocModelPortfolio& preproc, Seconds t_train)
    : storage_(storage_model), preproc_(preproc), t_train_(t_train) {
  if (t_train <= 0.0) throw std::invalid_argument("PerfModel: t_train must be positive");
}

Seconds PerfModel::load_time(const GpuDemand& demand, double threads,
                             const storage::Contention& contention) const {
  return storage_.load_time(demand.bytes, storage::ThreadAlloc::uniform(threads), contention);
}

Seconds PerfModel::preproc_time(const GpuDemand& demand, double preproc_threads) const {
  if (demand.samples == 0) return 0.0;
  return preproc_.predict_batch_time(preproc_threads, demand.bytes.total(), demand.samples);
}

Seconds PerfModel::t_dif(const GpuDemand& demand, double load_threads,
                         double preproc_threads, const storage::Contention& contention) const {
  return load_time(demand, load_threads, contention) +
         preproc_time(demand, preproc_threads) - t_train_;
}

Seconds PerfModel::gpu_iteration_time(const GpuDemand& demand, double load_threads,
                                      double preproc_threads,
                                      const storage::Contention& contention) const {
  const Seconds pipeline = load_time(demand, load_threads, contention) +
                           preproc_time(demand, preproc_threads);
  return std::max(pipeline, t_train_);
}

Seconds PerfModel::node_imbalance(const std::vector<GpuDemand>& demands,
                                  const std::vector<double>& load_threads,
                                  double preproc_threads,
                                  const storage::Contention& contention) const {
  if (demands.size() != load_threads.size() || demands.empty()) {
    throw std::invalid_argument("node_imbalance: mismatched sizes");
  }
  Seconds lo = std::numeric_limits<Seconds>::infinity();
  Seconds hi = 0.0;
  for (std::size_t j = 0; j < demands.size(); ++j) {
    const Seconds t =
        gpu_iteration_time(demands[j], load_threads[j], preproc_threads, contention);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  return hi - lo;
}

StageTimes flat_stage_times(const storage::TierBytes& bytes, const FlatRates& rates,
                            double load_threads, double preproc_threads,
                            double capacity_scale) {
  // Operation order is part of the contract: golden outputs are pinned bit
  // for bit, and x / 1.0 is exact, so the 1, 1, 1 call adds no rounding.
  StageTimes times;
  times.load = (static_cast<double>(bytes.local + bytes.ssd) / rates.local_bps +
                static_cast<double>(bytes.remote) / rates.remote_bps +
                static_cast<double>(bytes.pfs) / rates.pfs_bps) /
               (load_threads * capacity_scale);
  times.preproc = static_cast<double>(bytes.total()) /
                  (rates.preproc_bps * preproc_threads * capacity_scale);
  return times;
}

}  // namespace lobster::core
