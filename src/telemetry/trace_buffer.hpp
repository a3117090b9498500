// Per-thread lock-free trace-event ring buffer.
//
// Each recording thread owns one TraceBuffer (single producer); the only
// synchronization is a release store of the head index per record. The
// buffer never blocks and never allocates on the hot path: when full it
// overwrites the oldest record and accounts for it in `dropped()`, so a
// long run degrades to "the most recent N events" instead of unbounded
// memory or lost throughput.
//
// Snapshots (export time) read with an acquire load and copy surviving
// records oldest-first. Snapshotting while producers are still writing is
// benign for the index bookkeeping but may observe a torn in-flight record;
// exporters run after worker threads quiesce (end of bench / test join).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/clock.hpp"

namespace lobster::telemetry {

/// Chrome trace_event phases this subsystem emits.
enum class Phase : std::uint8_t {
  kComplete = 0,  ///< span with begin + duration ("ph":"X")
  kInstant = 1,   ///< point event ("ph":"i")
  kCounter = 2,   ///< sampled value ("ph":"C")
};

/// Subsystem tag; doubles as the Chrome trace "cat" field.
enum class Category : std::uint16_t {
  kCommon = 0,
  kSim,
  kStorage,
  kCache,
  kPrefetch,
  kPipeline,
  kPool,
  kExecutor,
  kRuntime,
  kBench,
  kTest,
  kCategoryCount,
};

const char* category_name(Category category) noexcept;

/// Fixed-size trace record (48 bytes). Strings are interned: `name_id`
/// indexes the Tracer's name table, `track` its track table.
struct TraceEvent {
  std::uint64_t ts_us = 0;   ///< begin timestamp, microseconds in `domain`
  std::uint64_t dur_us = 0;  ///< kComplete only
  double value = 0.0;        ///< kCounter only
  std::uint64_t arg = 0;     ///< free payload (bytes, sample id, count, ...)
  std::uint32_t name_id = 0;
  std::uint32_t track = 0;
  Category category = Category::kCommon;
  Phase phase = Phase::kInstant;
  Domain domain = Domain::kWall;
};
static_assert(sizeof(TraceEvent) == 48, "trace records must stay one cache-line-half");

class TraceBuffer {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit TraceBuffer(std::size_t capacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Single-producer append; overwrites the oldest record when full.
  void emit(const TraceEvent& event) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    slots_[static_cast<std::size_t>(head & mask_)] = event;
    head_.store(head + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Records overwritten so far (drop-oldest accounting).
  std::uint64_t dropped() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return head > slots_.size() ? head - slots_.size() : 0;
  }

  /// Total records ever emitted.
  std::uint64_t emitted() const noexcept { return head_.load(std::memory_order_acquire); }

  /// Appends surviving records, oldest first, to `out`.
  void snapshot(std::vector<TraceEvent>& out) const;

  /// Test/reset hook; caller must ensure the producer is quiescent.
  void clear() noexcept { head_.store(0, std::memory_order_release); }

 private:
  std::vector<TraceEvent> slots_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace lobster::telemetry
