// Future-access oracle built on the deterministic sampler.
//
// "we maintain a list of future accesses for each training sample. Each
// entry in the list records the GPU and iteration number during which the
// training sample needs to be accessed for the remainder of the training"
// (§4.4). With data-parallel sampling each sample is accessed exactly once
// per epoch (by one GPU somewhere in the cluster), so a *window* of the next
// few epochs bounds the oracle's memory while answering every query the
// eviction policies make:
//   - reuse-distance policy: is the next use on this node farther than
//     2·I − h iterations away? (needs ≤ 2 epochs of lookahead)
//   - reuse-count policy: how many more times will this node use the sample
//     within the window?
//   - prefetch ordering: which pending samples are needed soonest?
// Accesses beyond the window are reported as kNeverIter ("far future").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "data/sampler.hpp"

namespace lobster::data {

struct Access {
  IterId iter = kNeverIter;  ///< global iteration (epoch * I + h)
  NodeId node = 0;
  GpuId gpu = 0;
};

/// Interface the eviction policies consult. FutureAccessOracle is the
/// single-job implementation; MergedAccessOracle combines several jobs'
/// oracles for shared-dataset training (§2: "different DNN models sharing
/// the same training data").
class AccessOracle {
 public:
  virtual ~AccessOracle() = default;

  virtual std::optional<Access> next_access(SampleId sample, IterId after) const = 0;
  virtual std::optional<Access> next_access_on_node(SampleId sample, NodeId node,
                                                    IterId after) const = 0;
  virtual IterId reuse_distance_on_node(SampleId sample, NodeId node, IterId now) const = 0;
  virtual std::uint32_t remaining_uses_on_node(SampleId sample, NodeId node,
                                               IterId after) const = 0;
  virtual bool needed_by_other_node(SampleId sample, NodeId node, IterId after) const = 0;
};

class FutureAccessOracle final : public AccessOracle {
 public:
  /// Builds the oracle for epochs [0, window_epochs).
  FutureAccessOracle(const EpochSampler& sampler, std::uint32_t window_epochs = 2);

  /// Slides the window to cover [first_epoch, first_epoch + window).
  /// Amortized over an epoch of queries; call once per epoch.
  void rebase(std::uint32_t first_epoch);

  std::uint32_t window_epochs() const noexcept { return window_; }
  std::uint32_t first_epoch() const noexcept { return first_epoch_; }

  /// Next access of `sample` anywhere in the cluster strictly after `after`.
  std::optional<Access> next_access(SampleId sample, IterId after) const override;

  /// Next access of `sample` by any GPU of `node` strictly after `after`.
  std::optional<Access> next_access_on_node(SampleId sample, NodeId node,
                                            IterId after) const override;

  /// Iterations until the next use on `node` (kNeverIter if none in window).
  IterId reuse_distance_on_node(SampleId sample, NodeId node, IterId now) const override;

  /// Number of accesses by `node` within the window strictly after `after`.
  std::uint32_t remaining_uses_on_node(SampleId sample, NodeId node,
                                       IterId after) const override;

  /// True if some node *other than* `node` accesses the sample within the
  /// window strictly after `after` — the condition under which evicting the
  /// group's last cached copy would force peers into PFS re-fetches (§4.4).
  bool needed_by_other_node(SampleId sample, NodeId node, IterId after) const override;

  /// All in-window accesses of a sample, ordered by iteration.
  std::vector<Access> accesses(SampleId sample) const;

 private:
  void build();
  void index_epoch(std::uint32_t epoch, std::size_t slot);

  const EpochSampler& sampler_;
  std::uint32_t window_;
  std::uint32_t first_epoch_ = 0;

  // accesses_[sample * window_ + k] = access in epoch (first_epoch_ + k).
  // Exactly one access per sample per epoch when the sampler covers the
  // whole dataset; samples dropped by a partial final iteration have
  // iter == kNeverIter for that epoch.
  std::vector<Access> slots_;
};

/// Combines several jobs' oracles over one shared dataset: a sample's next
/// use is the earliest across jobs, remaining uses sum, and "needed by
/// another node" is true if any job needs it elsewhere. All member oracles
/// must report in a common iteration timeline (jobs advancing in lockstep,
/// as pipeline::TrainingSimulator schedules several jobs).
class MergedAccessOracle final : public AccessOracle {
 public:
  explicit MergedAccessOracle(std::vector<const AccessOracle*> members);

  std::optional<Access> next_access(SampleId sample, IterId after) const override;
  std::optional<Access> next_access_on_node(SampleId sample, NodeId node,
                                            IterId after) const override;
  IterId reuse_distance_on_node(SampleId sample, NodeId node, IterId now) const override;
  std::uint32_t remaining_uses_on_node(SampleId sample, NodeId node,
                                       IterId after) const override;
  bool needed_by_other_node(SampleId sample, NodeId node, IterId after) const override;

 private:
  std::vector<const AccessOracle*> members_;
};

}  // namespace lobster::data
