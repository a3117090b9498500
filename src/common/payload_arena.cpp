#include "common/payload_arena.hpp"

#include <array>
#include <atomic>
#include <mutex>

namespace lobster {
namespace {

// Every acquire bumps these from whichever thread runs it. A line of their
// own keeps that traffic off neighbouring statics, such as the Tracer
// singleton's guard that every trace site reads.
struct alignas(64) ArenaStats {
  std::atomic<std::uint64_t> tls_hits{0};
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> fresh_allocs{0};
  std::atomic<std::uint64_t> oversize_allocs{0};
};

ArenaStats& arena_stats() {
  static ArenaStats stats;
  return stats;
}

using Buffer = PayloadArena::Buffer;

// Leaked singleton: thread-local slabs flush here at thread exit, so the
// pool must outlive every thread (including ones destroyed during static
// teardown).
struct SharedPool {
  std::mutex mutex;
  std::array<std::vector<Buffer*>, PayloadArena::kNumClasses> free;
};

SharedPool& shared_pool() {
  static SharedPool* pool = new SharedPool;
  return *pool;
}

/// Smallest class whose buffers hold `n` bytes; kNumClasses when oversize.
std::size_t class_for_size(std::size_t n) {
  std::size_t bytes = PayloadArena::kMinClassBytes;
  std::size_t index = 0;
  while (bytes < n && index < PayloadArena::kNumClasses) {
    bytes <<= 1;
    ++index;
  }
  return index;
}

/// Largest class a buffer of `capacity` bytes can serve; kNumClasses when
/// the capacity is below the smallest class (not worth pooling).
std::size_t class_for_capacity(std::size_t capacity) {
  if (capacity < PayloadArena::kMinClassBytes) return PayloadArena::kNumClasses;
  std::size_t index = 0;
  while (index + 1 < PayloadArena::kNumClasses &&
         PayloadArena::class_bytes(index + 1) <= capacity) {
    ++index;
  }
  return index;
}

struct ThreadSlab {
  std::array<std::vector<Buffer*>, PayloadArena::kNumClasses> free;

  ~ThreadSlab() {
    // Thread exit: hand everything to the shared pool so another thread's
    // slab can reuse the warm buffers.
    auto& pool = shared_pool();
    const std::scoped_lock lock(pool.mutex);
    for (std::size_t c = 0; c < PayloadArena::kNumClasses; ++c) {
      for (Buffer* buffer : free[c]) {
        if (pool.free[c].size() < PayloadArena::pool_cap(c)) {
          pool.free[c].push_back(buffer);
        } else {
          delete buffer;
        }
      }
      free[c].clear();
    }
  }
};

ThreadSlab& thread_slab() {
  thread_local ThreadSlab slab;
  return slab;
}

}  // namespace

PayloadArena::BufferPtr PayloadArena::acquire(std::size_t n) {
  const std::size_t cls = class_for_size(n);
  if (cls >= kNumClasses) {
    arena_stats().oversize_allocs.fetch_add(1, std::memory_order_relaxed);
    return BufferPtr(new Buffer(n));  // plain heap; plain delete
  }

  Buffer* buffer = nullptr;
  auto& slab = thread_slab().free[cls];
  if (!slab.empty()) {
    buffer = slab.back();
    slab.pop_back();
    arena_stats().tls_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto& pool = shared_pool();
    const std::scoped_lock lock(pool.mutex);
    auto& shelf = pool.free[cls];
    if (!shelf.empty()) {
      buffer = shelf.back();
      shelf.pop_back();
      arena_stats().pool_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (buffer == nullptr) {
    arena_stats().fresh_allocs.fetch_add(1, std::memory_order_relaxed);
    buffer = new Buffer;
    buffer->reserve(class_bytes(cls));
  }
  // Same-size reuse (the uniform-payload hot path) makes this a no-op;
  // growing within the reserved class capacity never reallocates.
  buffer->resize(n);
  return BufferPtr(buffer, &PayloadArena::release);
}

void PayloadArena::release(Buffer* buffer) noexcept {
  const std::size_t cls = class_for_capacity(buffer->capacity());
  if (cls >= kNumClasses) {
    delete buffer;
    return;
  }
  auto& slab = thread_slab().free[cls];
  if (slab.size() < slab_cap(cls)) {
    slab.push_back(buffer);
    return;
  }
  auto& pool = shared_pool();
  {
    const std::scoped_lock lock(pool.mutex);
    auto& shelf = pool.free[cls];
    if (shelf.size() < pool_cap(cls)) {
      shelf.push_back(buffer);
      return;
    }
  }
  delete buffer;
}

PayloadArena::Stats PayloadArena::stats() {
  const auto& raw = arena_stats();
  Stats out;
  out.tls_hits = raw.tls_hits.load(std::memory_order_relaxed);
  out.pool_hits = raw.pool_hits.load(std::memory_order_relaxed);
  out.fresh_allocs = raw.fresh_allocs.load(std::memory_order_relaxed);
  out.oversize_allocs = raw.oversize_allocs.load(std::memory_order_relaxed);
  return out;
}

}  // namespace lobster
