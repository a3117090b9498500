#include "comm/fault.hpp"

#include <stdexcept>

#include "common/logging.hpp"
#include "telemetry/registry.hpp"

namespace lobster::comm {

FaultPlan::FaultPlan(std::uint16_t world_size, std::uint64_t seed)
    : world_size_(world_size),
      specs_(world_size),
      down_(world_size, false) {
  if (world_size == 0) throw std::invalid_argument("FaultPlan: world_size must be >= 1");
  rngs_.reserve(world_size);
  for (Rank rank = 0; rank < world_size; ++rank) {
    rngs_.emplace_back(derive_seed(seed, 0xFA07ULL + rank));
  }
}

FaultSpec& FaultPlan::spec(Rank rank) {
  if (rank >= world_size_) throw std::out_of_range("FaultPlan: rank out of range");
  return specs_[rank];
}

void FaultPlan::kill(Rank rank) {
  if (rank >= world_size_) throw std::out_of_range("FaultPlan: rank out of range");
  const std::scoped_lock lock(mutex_);
  if (down_[rank]) return;
  down_[rank] = true;
  ++killed_;
  LOBSTER_METRIC_COUNT("fault.nodes_killed", 1);
  log::warn("fault: node %u killed", static_cast<unsigned>(rank));
}

void FaultPlan::revive(Rank rank) {
  if (rank >= world_size_) throw std::out_of_range("FaultPlan: rank out of range");
  const std::scoped_lock lock(mutex_);
  if (!down_[rank]) return;
  down_[rank] = false;
  ++revived_;
  LOBSTER_METRIC_COUNT("fault.nodes_revived", 1);
  log::info("fault: node %u revived", static_cast<unsigned>(rank));
}

bool FaultPlan::is_down(Rank rank) const {
  if (rank >= world_size_) throw std::out_of_range("FaultPlan: rank out of range");
  const std::scoped_lock lock(mutex_);
  return down_[rank];
}

void FaultPlan::on_iteration(IterId iter) {
  {
    const std::scoped_lock lock(mutex_);
    clock_ = iter;
  }
  for (Rank rank = 0; rank < world_size_; ++rank) {
    bool fire_kill = false;
    bool fire_revive = false;
    {
      const std::scoped_lock lock(mutex_);
      const FaultSpec& spec = specs_[rank];
      // A spec with both events is a kill window: revive wins once the
      // clock passes revive_at_iter, so "kill at 4, revive at 8" composes.
      fire_revive = spec.revive_at_iter != kNeverIter && iter >= spec.revive_at_iter &&
                    down_[rank];
      fire_kill = !fire_revive && spec.kill_at_iter != kNeverIter &&
                  iter >= spec.kill_at_iter &&
                  (spec.revive_at_iter == kNeverIter || iter < spec.revive_at_iter) &&
                  !down_[rank];
    }
    if (fire_kill) kill(rank);
    if (fire_revive) revive(rank);
  }
}

double FaultPlan::capacity_scale(Rank rank) const {
  if (rank >= world_size_) throw std::out_of_range("FaultPlan: rank out of range");
  const std::scoped_lock lock(mutex_);
  if (down_[rank]) return 0.0;
  return specs_[rank].capacity.scale_at(static_cast<double>(clock_));
}

FaultPlan::Verdict FaultPlan::on_message(Rank from, Rank to) {
  Verdict verdict;
  if (from == to) return verdict;  // local delivery never crosses the fabric
  const std::scoped_lock lock(mutex_);
  if (down_[from] || down_[to]) {
    verdict.drop = true;
    ++dropped_;
    LOBSTER_METRIC_COUNT("fault.dropped_messages", 1);
    return verdict;
  }
  const FaultSpec& spec = specs_[from];
  // The sender's own stream: one rank's traffic never shifts the verdicts
  // another rank's messages draw.
  Rng& rng = rngs_[from];
  if (spec.drop_fraction > 0.0 && rng.uniform() < spec.drop_fraction) {
    verdict.drop = true;
    ++dropped_;
    LOBSTER_METRIC_COUNT("fault.dropped_messages", 1);
    return verdict;
  }
  if (spec.corrupt_fraction > 0.0 && rng.uniform() < spec.corrupt_fraction) {
    verdict.corrupt = true;
    ++corrupted_;
    LOBSTER_METRIC_COUNT("fault.corrupted_messages", 1);
  }
  if (spec.delay_s > 0.0 || spec.delay_jitter_s > 0.0) {
    verdict.delay_s = spec.delay_s;
    if (spec.delay_jitter_s > 0.0) verdict.delay_s += rng.uniform(0.0, spec.delay_jitter_s);
    ++delayed_;
    LOBSTER_METRIC_COUNT("fault.delayed_messages", 1);
  }
  return verdict;
}

std::uint64_t FaultPlan::dropped_messages() const {
  const std::scoped_lock lock(mutex_);
  return dropped_;
}

std::uint64_t FaultPlan::delayed_messages() const {
  const std::scoped_lock lock(mutex_);
  return delayed_;
}

std::uint64_t FaultPlan::corrupted_messages() const {
  const std::scoped_lock lock(mutex_);
  return corrupted_;
}

std::uint64_t FaultPlan::nodes_killed() const {
  const std::scoped_lock lock(mutex_);
  return killed_;
}

std::uint64_t FaultPlan::nodes_revived() const {
  const std::scoped_lock lock(mutex_);
  return revived_;
}

}  // namespace lobster::comm
