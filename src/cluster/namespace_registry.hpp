// Dataset-namespace registry: which KV namespace a job's keys live in.
//
// Namespaces are minted per *dataset identity* (fingerprint of the spec +
// seed), refcounted by the jobs using them. Two jobs over the same dataset
// acquire the same namespace — so their keys collide on purpose and a
// sample staged by one is a KV hit for the other (CoorDL-style cross-job
// dedup). The last release of a namespace frees its id for reuse; the
// caller is expected to drop the namespace's KV entries at that point
// (KvBudgetArbiter::drop_namespace) so a later unrelated dataset can't alias
// stale payloads.
//
// Thread-safe: acquire/release take a mutex; the cluster driver calls them
// at admission/finish, never on a per-sample path.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cache/namespace.hpp"

namespace lobster::cluster {

class NamespaceRegistry {
 public:
  NamespaceRegistry() = default;

  NamespaceRegistry(const NamespaceRegistry&) = delete;
  NamespaceRegistry& operator=(const NamespaceRegistry&) = delete;

  /// Namespace for the dataset identified by `fingerprint`, minting a fresh
  /// id (>= 1; 0 stays the single-job default) on first use and bumping the
  /// refcount otherwise. Throws when all 255 namespace ids are live.
  cache::NamespaceId acquire(std::uint64_t fingerprint);

  /// Drops one reference. Returns true when this was the last reference —
  /// the namespace id is recycled and the caller should erase its KV
  /// entries. Throws on a namespace that is not live.
  bool release(cache::NamespaceId ns);

  /// True while at least two jobs hold the namespace (dedup is active).
  bool shared(cache::NamespaceId ns) const;

  std::uint32_t refcount(cache::NamespaceId ns) const;
  std::size_t live_namespaces() const;

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::uint32_t refs = 0;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, cache::NamespaceId> by_fingerprint_;
  std::unordered_map<cache::NamespaceId, Entry> live_;
  std::vector<cache::NamespaceId> free_ids_;
  cache::NamespaceId next_fresh_ = 1;
};

}  // namespace lobster::cluster
