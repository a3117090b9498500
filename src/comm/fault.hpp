// Fault injection for the online runtime (DESIGN.md §9).
//
// A FaultPlan describes what goes wrong and when: kill a node at iteration
// k (all traffic to/from it is silently dropped, exactly as a crashed
// process looks to its peers) and optionally revive it at a later
// iteration (recovery scenarios), delay one rank's outgoing messages by a
// fixed latency plus uniform jitter (a stalling peer), drop a fraction
// of a rank's traffic (a flaky link), or corrupt a fraction of its
// outgoing payloads (bit rot on the wire; receivers must quarantine, not
// deliver). The plan plugs into comm::MessageBus (set_fault_plan) which
// consults it on every send. Capacity degradation (throttled node, slow
// NIC) is declared the same way everywhere: a FaultSpec carries an
// iteration-indexed sim::CapacityProfile, and the discrete-event side hands
// a virtual-time profile to sim::Resource::set_capacity_profile for the
// same scenarios on the virtual-time NIC.
//
// Self-sends always pass untouched: local delivery (including the
// DistributionManager's shutdown poison pill) does not cross the faulty
// fabric, so a "dead" node can still be stopped cleanly by the harness.
//
// Thread-safety: fully thread-safe. The bus queries verdicts under its own
// lock while harness threads kill/revive nodes and advance the iteration
// clock; a small internal mutex serializes the RNG streams and counters.
// Drop, corrupt and jitter verdicts draw from one stream per *sending*
// rank (derive_seed(seed, 0xFA07 + rank)), so how often one rank sends
// never changes which of another rank's messages are hit.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/capacity_profile.hpp"

namespace lobster::comm {

using Rank = std::uint16_t;

/// Per-rank fault specification. All fields compose: a rank can be slow and
/// lossy until it dies at `kill_at_iter`.
struct FaultSpec {
  /// Fraction of this rank's *outgoing* messages dropped, [0, 1].
  double drop_fraction = 0.0;
  /// Fraction of this rank's *outgoing* messages whose payload bytes are
  /// flipped in flight, [0, 1]. The message still arrives on time — only
  /// its content lies, which is exactly what end-to-end verification and
  /// the corruption-quarantine path must catch.
  double corrupt_fraction = 0.0;
  /// Added delivery latency on this rank's outgoing messages.
  Seconds delay_s = 0.0;
  /// Uniform extra latency in [0, delay_jitter_s) on top of delay_s.
  Seconds delay_jitter_s = 0.0;
  /// Kill this rank when the iteration clock reaches this value
  /// (FaultPlan::on_iteration); kNeverIter = never.
  IterId kill_at_iter = kNeverIter;
  /// Revive this rank when the iteration clock reaches this value
  /// (rejoin scenarios: the RecoveryManager's probe must then succeed and
  /// re-admit the node); kNeverIter = stays dead.
  IterId revive_at_iter = kNeverIter;
  /// Iteration-indexed capacity schedule for this rank (scale_at(iter)):
  /// thermal-throttle ramps, co-tenant windows, degraded-NIC presets.
  /// Harnesses read FaultPlan::capacity_scale(rank) on the iteration clock
  /// and apply it to the rank's executor — the online twin of handing a
  /// virtual-time profile to sim::Resource::set_capacity_profile. Empty =
  /// full speed.
  sim::CapacityProfile capacity;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint16_t world_size, std::uint64_t seed = 0x0FA17ULL);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  std::uint16_t world_size() const noexcept { return world_size_; }

  /// Mutable spec for `rank`; configure before (or during) the run.
  FaultSpec& spec(Rank rank);

  /// Immediately marks `rank` dead: every message to or from it (except
  /// self-sends) is dropped from now on. Idempotent.
  void kill(Rank rank);

  /// Brings a killed rank back (recovery scenarios: the circuit breaker
  /// must re-close once the peer answers again).
  void revive(Rank rank);

  bool is_down(Rank rank) const;

  /// Advances the iteration clock; applies every spec whose kill_at_iter
  /// or revive_at_iter has been reached. Harnesses call this from an
  /// executor iteration hook.
  void on_iteration(IterId iter);

  /// The rank's capacity scale at the current iteration clock (per its
  /// spec's CapacityProfile; 0.0 while the rank is down, 1.0 with no
  /// profile). The value the bench/test harness scales the rank's executor
  /// rates by.
  double capacity_scale(Rank rank) const;

  /// Verdict for one message, consumed by MessageBus::do_send.
  struct Verdict {
    bool drop = false;
    bool corrupt = false;
    Seconds delay_s = 0.0;
  };
  Verdict on_message(Rank from, Rank to);

  // Injection accounting (what the plan actually did, for reports/tests).
  std::uint64_t dropped_messages() const;
  std::uint64_t delayed_messages() const;
  std::uint64_t corrupted_messages() const;
  std::uint64_t nodes_killed() const;
  std::uint64_t nodes_revived() const;

 private:
  const std::uint16_t world_size_;
  mutable std::mutex mutex_;
  std::vector<FaultSpec> specs_;
  std::vector<bool> down_;
  IterId clock_ = 0;  ///< last on_iteration value (drives capacity_scale)
  std::vector<Rng> rngs_;  ///< verdict stream per sending rank
  std::uint64_t dropped_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t killed_ = 0;
  std::uint64_t revived_ = 0;
};

}  // namespace lobster::comm
