#include "cache/kv_store.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "cache/namespace.hpp"
#include "common/rng.hpp"
#include "telemetry/registry.hpp"

namespace lobster::cache {

KvStore::KvStore(std::size_t shards) : shards_(shards), mask_(shards - 1) {
  if (shards == 0 || !std::has_single_bit(shards)) {
    throw std::invalid_argument("KvStore: shard count must be a power of two");
  }
}

KvStore::Shard& KvStore::shard_for(SampleId sample) const {
  // Mix the id so sequential samples spread across shards.
  std::uint64_t state = sample;
  return shards_[splitmix64(state) & mask_];
}

void KvStore::set_capacity(Bytes capacity) {
  capacity_.store(capacity, std::memory_order_relaxed);
}

Bytes KvStore::capacity() const noexcept {
  return capacity_.load(std::memory_order_relaxed);
}

Status KvStore::put(SampleId sample, std::vector<std::byte> payload) {
  return put(sample, std::make_shared<const std::vector<std::byte>>(std::move(payload)));
}

Status KvStore::put(SampleId sample, PayloadPtr payload) {
  if (payload == nullptr) throw std::invalid_argument("KvStore::put: null payload");
  Shard& shard = shard_for(sample);
  const std::scoped_lock lock(shard.mutex);
  const auto existing = shard.entries.find(sample);
  const Bytes old_size = existing == shard.entries.end() ? 0 : existing->second->size();
  const Bytes new_size = payload->size();
  const Bytes cap = capacity_.load(std::memory_order_relaxed);
  if (cap != 0 && new_size > old_size) {
    const Bytes growth = new_size - old_size;
    if (total_bytes_.load(std::memory_order_relaxed) + growth > cap) {
      ++shard.stats.rejected_puts;
      LOBSTER_METRIC_COUNT("kv.rejected_puts", 1);
      return Status::overflow("kv store at capacity");
    }
  }
  shard.bytes += new_size - old_size;
  total_bytes_.fetch_add(new_size, std::memory_order_relaxed);
  total_bytes_.fetch_sub(old_size, std::memory_order_relaxed);
  LOBSTER_METRIC_COUNT("kv.put_bytes", new_size);
  if (existing == shard.entries.end()) {
    shard.entries.emplace(sample, std::move(payload));
  } else {
    existing->second = std::move(payload);
  }
  ++shard.stats.puts;
  LOBSTER_METRIC_COUNT("kv.puts", 1);
  return Status{};
}

Result<KvStore::PayloadPtr> KvStore::get(SampleId sample) const {
  Shard& shard = shard_for(sample);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.entries.find(sample);
  if (it == shard.entries.end()) {
    ++shard.stats.get_misses;
    LOBSTER_METRIC_COUNT("kv.get_misses", 1);
    return Status::not_found();  // hot path: no detail string allocation
  }
  ++shard.stats.get_hits;
  LOBSTER_METRIC_COUNT("kv.get_hits", 1);
  return it->second;
}

bool KvStore::contains(SampleId sample) const {
  Shard& shard = shard_for(sample);
  const std::scoped_lock lock(shard.mutex);
  return shard.entries.contains(sample);
}

bool KvStore::erase(SampleId sample) {
  Shard& shard = shard_for(sample);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.entries.find(sample);
  if (it == shard.entries.end()) return false;
  shard.bytes -= it->second->size();
  total_bytes_.fetch_sub(it->second->size(), std::memory_order_relaxed);
  shard.entries.erase(it);
  ++shard.stats.erases;
  return true;
}

std::size_t KvStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

Bytes KvStore::bytes() const {
  Bytes total = 0;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard.mutex);
    total += shard.bytes;
  }
  return total;
}

Bytes KvStore::bytes_in_namespace(std::uint32_t ns) const {
  Bytes total = 0;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard.mutex);
    for (const auto& [key, payload] : shard.entries) {
      if (namespace_of(key) == ns) total += payload->size();
    }
  }
  return total;
}

std::vector<SampleId> KvStore::keys_in_namespace(std::uint32_t ns) const {
  std::vector<SampleId> keys;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard.mutex);
    for (const auto& [key, payload] : shard.entries) {
      if (namespace_of(key) == ns) keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

KvStore::Stats KvStore::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard.mutex);
    total.puts += shard.stats.puts;
    total.get_hits += shard.stats.get_hits;
    total.get_misses += shard.stats.get_misses;
    total.erases += shard.stats.erases;
    total.rejected_puts += shard.stats.rejected_puts;
  }
  return total;
}

}  // namespace lobster::cache
