// In-memory key-value sample store.
//
// §2 notes Lobster's design also applies when the distributed cache is
// replaced by "alternatives ... like for example KV-stores": a cluster
// service keyed by sample id instead of per-node caches with a directory.
// This is that substrate — a sharded, thread-safe KV store the online
// runtime can use as its remote tier (PlanExecutor::set_kv_store): demand
// misses check the store before falling back to the PFS, and fetched
// samples are published for the other nodes.
//
// Payloads are held as shared_ptr<const vector<byte>>: get() hands out a
// reference to the immutable payload instead of copying it, so a remote hit
// costs one shard-lock plus a refcount bump no matter how large the sample
// is. Overwrites and erases drop the store's reference; readers holding the
// old payload keep it alive until they're done.
//
// Typed API: get() returns Result<PayloadPtr> (kNotFound on miss, never a
// null pointer on success) and put() returns Status (kOverflow once an
// optional capacity is exhausted) — the causes the runtime's degraded
// routing branches on, instead of a bare nullptr/void.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace lobster::cache {

class KvStore {
 public:
  /// Immutable, shareable payload handle; non-null whenever get() is ok.
  using PayloadPtr = std::shared_ptr<const std::vector<std::byte>>;

  /// `shards` must be a power of two (lock striping).
  explicit KvStore(std::size_t shards = 16);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Optional capacity ceiling; 0 (default) = unbounded. A put that would
  /// push the store past the ceiling is rejected with StatusCode::kOverflow
  /// (overwrites that shrink or keep the footprint always succeed).
  void set_capacity(Bytes capacity);
  Bytes capacity() const noexcept;

  /// Inserts or overwrites a sample's payload.
  Status put(SampleId sample, std::vector<std::byte> payload);

  /// Zero-copy insert of an already-shared payload (must be non-null).
  Status put(SampleId sample, PayloadPtr payload);

  /// Shared reference to the payload; StatusCode::kNotFound on miss.
  Result<PayloadPtr> get(SampleId sample) const;

  bool contains(SampleId sample) const;
  bool erase(SampleId sample);

  std::size_t size() const;
  Bytes bytes() const;

  /// Multi-tenant accounting (DESIGN.md §10): bytes held under one dataset
  /// namespace (keys whose high bits match, see cache/namespace.hpp).
  /// Aggregates over shards — not a hot-path call.
  Bytes bytes_in_namespace(std::uint32_t ns) const;

  /// Sorted keys currently held under one namespace — the store-truth side
  /// of a checkpoint residency manifest (DESIGN.md §13): restore replays
  /// only entries the store still holds, and the sort keeps manifests
  /// deterministic. Aggregates over shards — not a hot-path call.
  std::vector<SampleId> keys_in_namespace(std::uint32_t ns) const;

  struct Stats {
    std::uint64_t puts = 0;
    std::uint64_t get_hits = 0;
    std::uint64_t get_misses = 0;
    std::uint64_t erases = 0;
    std::uint64_t rejected_puts = 0;  ///< puts refused by the capacity ceiling
  };
  Stats stats() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<SampleId, PayloadPtr> entries;
    Bytes bytes = 0;
    Stats stats;
  };

  Shard& shard_for(SampleId sample) const;

  mutable std::vector<Shard> shards_;
  std::size_t mask_;
  std::atomic<Bytes> capacity_{0};
  // Store-wide footprint, maintained alongside the per-shard byte counts so
  // the capacity check stays a single relaxed load on the put fast path.
  mutable std::atomic<Bytes> total_bytes_{0};
};

}  // namespace lobster::cache
