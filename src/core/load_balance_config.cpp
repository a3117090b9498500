#include "core/load_balance_config.hpp"

#include <numeric>
#include <string>

namespace lobster::core {

Status LoadBalanceConfig::validate() const {
  if (total_load_threads == 0) {
    return Status::invalid("total_load_threads must be >= 1 (zero-thread split)");
  }
  if (min_threads_per_gpu == 0) {
    return Status::invalid("min_threads_per_gpu must be >= 1 (zero-thread split)");
  }
  if (!(tau > 0.0)) {
    return Status::invalid("tau must be positive");
  }
  if (world_size > 0) {
    if (max_pool_threads != 0 && max_pool_threads < world_size) {
      return Status::invalid("max_pool_threads cap (" + std::to_string(max_pool_threads) +
                             ") below world size " + std::to_string(world_size));
    }
    if (!batch_quotas.empty() && batch_quotas.size() != world_size) {
      return Status::invalid("batch_quotas has " + std::to_string(batch_quotas.size()) +
                             " entries for world size " + std::to_string(world_size));
    }
  }
  if (!batch_quotas.empty()) {
    if (batch_size == 0) {
      return Status::invalid("batch_quotas set but batch_size unspecified");
    }
    const std::uint64_t sum =
        std::accumulate(batch_quotas.begin(), batch_quotas.end(), std::uint64_t{0});
    if (sum != batch_size) {
      return Status::invalid("batch_quotas sum " + std::to_string(sum) +
                             " != batch_size " + std::to_string(batch_size));
    }
  }
  return Status{};
}

}  // namespace lobster::core
