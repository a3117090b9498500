// Cross-job KV eviction arbiter: one global memory budget over the shared
// cluster KV tier (DESIGN.md §10).
//
// Every published sample passes through the arbiter, which enforces a
// cluster-wide byte budget across all dataset namespaces. When a publish
// (or a mid-run budget shrink) needs room, victims are chosen by
// *imminence*: how many scheduler rounds until the sample's next access by
// ANY job using its namespace — the cluster analogue of the paper's §4.4
// clairvoyant eviction, answered by per-namespace merged oracles
// (data::MergedAccessOracle over every job sharing the dataset). The
// farthest-future entry goes first, and an entry some job needs *this
// round* (imminence 0) is never evicted:
//   * a publish that would require evicting an imminent entry is refused
//     (kOverflow) — the sample is still delivered, it just isn't cached;
//   * a shrink that cannot reach the new budget without evicting imminent
//     entries stops early and reports the deficit; the next publishes keep
//     shaving as accesses pass.
//
// Thread-safe; the cluster driver and executor workers may publish
// concurrently. Imminence callbacks run under the arbiter lock, so they
// must not call back into the arbiter.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "cache/namespace.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace lobster::cluster {

/// Rounds until the next access of `key` by any job of its namespace;
/// kNeverIter when no job needs it within its oracle window (or its jobs
/// are all queued/finished).
using ImminenceFn = std::function<IterId(SampleId key)>;

class KvBudgetArbiter {
 public:
  struct Stats {
    std::uint64_t publishes = 0;
    std::uint64_t evictions = 0;          ///< victims evicted to make room
    std::uint64_t rejected_publishes = 0; ///< refused: room needed an imminent victim
    std::uint64_t shrinks = 0;            ///< set_budget calls that lowered it
    std::uint64_t protected_entries = 0;  ///< imminent entries a sweep skipped
    Bytes deficit_bytes = 0;              ///< over-budget remainder after the last shrink
  };

  /// `budget` = 0 means unbounded (the arbiter still tracks usage).
  KvBudgetArbiter(cache::KvStore& store, Bytes budget, ImminenceFn imminence);

  KvBudgetArbiter(const KvBudgetArbiter&) = delete;
  KvBudgetArbiter& operator=(const KvBudgetArbiter&) = delete;

  /// Publishes `key` through the budget: evicts least-imminent entries from
  /// the store (and `directory`, when given) until the payload fits, then
  /// forwards to KvStore::put. Fails with kOverflow when room cannot be
  /// made without evicting an entry needed this round.
  Status publish(SampleId key, cache::KvStore::PayloadPtr payload, NodeId holder,
                 cache::CacheDirectory* directory);

  /// Re-targets the global budget mid-run. Lowering it evicts
  /// least-imminent entries down to the new budget immediately — but never
  /// entries with imminence 0 (a sample another job needs this round must
  /// survive a shrink; see Stats::deficit_bytes when that leaves the store
  /// over budget).
  void set_budget(Bytes budget, cache::CacheDirectory* directory = nullptr);

  Bytes budget() const;
  Bytes bytes_tracked() const;
  Bytes namespace_bytes(cache::NamespaceId ns) const;

  /// Forgets (and erases from the store/directory) every entry of a
  /// namespace — the dataset's last job released it. Returns bytes freed.
  /// Walks only that namespace's books: the arbiter is the store's only
  /// writer, so its books are exactly what the store holds there.
  Bytes drop_namespace(cache::NamespaceId ns, cache::CacheDirectory* directory);

  /// One live entry of a namespace, as seen by the arbiter's books — the
  /// checkpoint residency manifest's source (DESIGN.md §13).
  struct ManifestEntry {
    SampleId key = 0;  ///< full namespaced key
    NodeId holder = 0;
    Bytes bytes = 0;
  };
  /// Every tracked entry of `ns`, in key order (deterministic manifests).
  std::vector<ManifestEntry> namespace_manifest(cache::NamespaceId ns) const;

  /// Moves an entry's recorded holder (checkpoint restore onto a different
  /// node block). Returns false for an untracked key. The caller keeps the
  /// CacheDirectory in sync (remove old / add new) — the arbiter only owns
  /// the accounting.
  bool rehome(SampleId key, NodeId holder);

  Stats stats() const;

 private:
  struct Entry {
    Bytes bytes = 0;
    NodeId holder = 0;
    bool live = false;
  };
  /// One dataset's books. Sample ids are dense per dataset
  /// (cache/namespace.hpp), so entries are indexed by sample_of(key) and a
  /// front-to-back walk visits them in key order.
  struct Namespace {
    std::vector<Entry> entries;
    Bytes bytes = 0;
  };

  /// Evicts until at least `needed` bytes fit under `target`; returns false
  /// if impossible without touching imminent entries. Caller holds mutex_.
  bool make_room_locked(Bytes needed, Bytes target, cache::CacheDirectory* directory);

  cache::KvStore& store_;
  ImminenceFn imminence_;
  mutable std::mutex mutex_;
  Bytes budget_;
  Bytes tracked_bytes_ = 0;
  std::unordered_map<cache::NamespaceId, Namespace> namespaces_;
  Stats stats_;
};

}  // namespace lobster::cluster
