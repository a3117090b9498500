#include "cluster/budget_arbiter.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "telemetry/registry.hpp"

namespace lobster::cluster {

KvBudgetArbiter::KvBudgetArbiter(cache::KvStore& store, Bytes budget, ImminenceFn imminence)
    : store_(store), imminence_(std::move(imminence)), budget_(budget) {
  if (!imminence_) throw std::invalid_argument("KvBudgetArbiter: imminence fn required");
}

bool KvBudgetArbiter::make_room_locked(Bytes needed, Bytes target,
                                       cache::CacheDirectory* directory) {
  if (tracked_bytes_ + needed <= target) return true;
  // One sweep gathers every evictable entry into a max-heap on
  // (distance, key): the most distant entry pops first, larger key first on
  // a tie, so the victim order does not depend on the sweep order.
  struct Victim {
    IterId distance;
    SampleId key;
  };
  const auto nearer = [](const Victim& a, const Victim& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.key < b.key;
  };
  std::vector<Victim> victims;
  for (const auto& [ns, books] : namespaces_) {
    for (std::size_t sample = 0; sample < books.entries.size(); ++sample) {
      if (!books.entries[sample].live) continue;
      const SampleId key = cache::make_namespaced_key(ns, static_cast<SampleId>(sample));
      const IterId distance = imminence_(key);
      if (distance == 0) {
        ++stats_.protected_entries;
        continue;  // needed this round by some job: never a victim
      }
      victims.push_back({distance, key});
    }
  }
  std::make_heap(victims.begin(), victims.end(), nearer);
  while (tracked_bytes_ + needed > target && !victims.empty()) {
    std::pop_heap(victims.begin(), victims.end(), nearer);
    const SampleId key = victims.back().key;
    victims.pop_back();
    Namespace& books = namespaces_.at(cache::namespace_of(key));
    Entry& entry = books.entries[cache::sample_of(key)];
    tracked_bytes_ -= entry.bytes;
    books.bytes -= entry.bytes;
    if (directory != nullptr) directory->remove(key, entry.holder);
    entry = Entry{};
    (void)store_.erase(key);
    ++stats_.evictions;
    LOBSTER_METRIC_COUNT("cluster.arbiter.evictions", 1);
  }
  return tracked_bytes_ + needed <= target;
}

Status KvBudgetArbiter::publish(SampleId key, cache::KvStore::PayloadPtr payload,
                                NodeId holder, cache::CacheDirectory* directory) {
  if (payload == nullptr) throw std::invalid_argument("KvBudgetArbiter::publish: null payload");
  const Bytes size = payload->size();
  const std::scoped_lock lock(mutex_);
  ++stats_.publishes;
  Namespace& books = namespaces_[cache::namespace_of(key)];
  const SampleId sample = cache::sample_of(key);
  if (sample < books.entries.size() && books.entries[sample].live) {
    // Already cached (another node of the same namespace published first, or
    // a re-publish after rejoin): keep the existing holder, count nothing.
    return Status{};
  }
  if (budget_ != 0 && !make_room_locked(size, budget_, directory)) {
    ++stats_.rejected_publishes;
    LOBSTER_METRIC_COUNT("cluster.arbiter.rejected_publishes", 1);
    return Status::overflow("cluster KV budget: room would need an imminent victim");
  }
  const Status put = store_.put(key, std::move(payload));
  if (!put.ok()) return put;
  if (sample >= books.entries.size()) books.entries.resize(std::size_t{sample} + 1);
  books.entries[sample] = Entry{size, holder, true};
  books.bytes += size;
  tracked_bytes_ += size;
  if (directory != nullptr) directory->add(key, holder);
  return Status{};
}

void KvBudgetArbiter::set_budget(Bytes budget, cache::CacheDirectory* directory) {
  const std::scoped_lock lock(mutex_);
  const bool shrinking = budget != 0 && (budget_ == 0 || budget < budget_);
  budget_ = budget;
  if (!shrinking) return;
  ++stats_.shrinks;
  (void)make_room_locked(0, budget_, directory);
  stats_.deficit_bytes = tracked_bytes_ > budget_ ? tracked_bytes_ - budget_ : 0;
  LOBSTER_METRIC_GAUGE("cluster.arbiter.deficit_bytes", stats_.deficit_bytes);
}

Bytes KvBudgetArbiter::budget() const {
  const std::scoped_lock lock(mutex_);
  return budget_;
}

Bytes KvBudgetArbiter::bytes_tracked() const {
  const std::scoped_lock lock(mutex_);
  return tracked_bytes_;
}

Bytes KvBudgetArbiter::namespace_bytes(cache::NamespaceId ns) const {
  const std::scoped_lock lock(mutex_);
  const auto it = namespaces_.find(ns);
  return it == namespaces_.end() ? 0 : it->second.bytes;
}

Bytes KvBudgetArbiter::drop_namespace(cache::NamespaceId ns,
                                      cache::CacheDirectory* directory) {
  const std::scoped_lock lock(mutex_);
  const auto it = namespaces_.find(ns);
  if (it == namespaces_.end()) return 0;
  const std::vector<Entry>& entries = it->second.entries;
  for (std::size_t sample = 0; sample < entries.size(); ++sample) {
    if (!entries[sample].live) continue;
    const SampleId key = cache::make_namespaced_key(ns, static_cast<SampleId>(sample));
    if (directory != nullptr) directory->remove(key, entries[sample].holder);
    (void)store_.erase(key);
  }
  const Bytes freed = it->second.bytes;
  tracked_bytes_ -= freed;
  namespaces_.erase(it);
  return freed;
}

std::vector<KvBudgetArbiter::ManifestEntry> KvBudgetArbiter::namespace_manifest(
    cache::NamespaceId ns) const {
  const std::scoped_lock lock(mutex_);
  std::vector<ManifestEntry> manifest;
  const auto it = namespaces_.find(ns);
  if (it == namespaces_.end()) return manifest;
  const std::vector<Entry>& entries = it->second.entries;
  for (std::size_t sample = 0; sample < entries.size(); ++sample) {
    if (!entries[sample].live) continue;
    manifest.push_back({cache::make_namespaced_key(ns, static_cast<SampleId>(sample)),
                        entries[sample].holder, entries[sample].bytes});
  }
  return manifest;
}

bool KvBudgetArbiter::rehome(SampleId key, NodeId holder) {
  const std::scoped_lock lock(mutex_);
  const auto it = namespaces_.find(cache::namespace_of(key));
  if (it == namespaces_.end()) return false;
  std::vector<Entry>& entries = it->second.entries;
  const SampleId sample = cache::sample_of(key);
  if (sample >= entries.size() || !entries[sample].live) return false;
  entries[sample].holder = holder;
  return true;
}

KvBudgetArbiter::Stats KvBudgetArbiter::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace lobster::cluster
