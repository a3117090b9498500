// The Tracer's one record type and the per-thread ring that holds it.
//
// Every recording thread owns one TraceBuffer (single producer). A plain
// trace event and a causal span (trace_context.hpp) are both a TraceEvent;
// a span is the record whose trace_id is non-zero. An emit never allocates
// past the ring's reservation: when the ring is full it overwrites the
// oldest record and accounts for it in `dropped()`, so a long run degrades
// to "the most recent N records" instead of unbounded memory or lost
// throughput, and a lost span counts exactly like a lost event.
//
// Every emit takes the ring's own lock, which only a snapshot, a clear or
// a drop-count read ever contends on. So any ring can be copied while its
// producer records (the flight recorder does), and a copy never holds a
// torn record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.hpp"
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

/// Causal span vocabulary (trace_context.hpp). Fixed, not interned: the
/// cross-node analyzer attributes time by kind, so the set is part of the
/// lobster.spans.v1 schema (tools/validate_metrics.py mirrors it).
enum class SpanKind : std::uint8_t {
  kFetch = 0,        ///< root: one executor batch that routed samples to peers
                     ///< (arg = samples routed, arg2 = iteration), re-routes included
  kAttempt,          ///< one request/reply round-trip against one holder
  kBackoff,          ///< retry backoff sleep between attempts
  kServe,            ///< remote rank's handler (parent = requester's attempt)
  kDetour,           ///< instant: routing moved to the next holder
  kPfsFallback,      ///< payload re-materialized from the PFS
  kBreakerFastFail,  ///< instant: open circuit breaker rejected the fetch
  kInventoryProbe,   ///< recovery half-open probe round-trip (its own trace)
  kMultiGet,         ///< one multi-get envelope round against one holder: a
                     ///< child of the caller's span, a root outside any span
  kKindCount,
};

const char* span_kind_name(SpanKind kind) noexcept;

/// Fixed-size trace record (80 bytes). Strings are interned: `name_id`
/// indexes the Tracer's name table, `track` its track table. A causal span
/// sets `trace_id` (never 0) and the fields below it; a plain trace event
/// leaves them zero. A span is wall-domain and names itself by `kind`, so
/// it leaves `name_id`, `category` and `phase` at their defaults.
struct TraceEvent {
  std::uint64_t ts_us = 0;   ///< begin timestamp, microseconds in `domain`
  std::uint64_t dur_us = 0;  ///< kComplete events and spans
  double value = 0.0;        ///< kCounter only
  std::uint64_t arg = 0;     ///< free payload (bytes, sample id, count, ...)
  std::uint64_t arg2 = 0;    ///< spans: second kind-specific payload
  std::uint64_t trace_id = 0;        ///< spans: the causal trace (0 = not a span)
  std::uint64_t span_id = 0;         ///< spans: process-unique, non-zero
  std::uint64_t parent_span_id = 0;  ///< spans: 0 for a trace's root
  std::uint32_t name_id = 0;
  std::uint32_t track = 0;
  Category category = Category::kCommon;
  Phase phase = Phase::kInstant;
  Domain domain = Domain::kWall;
  SpanKind kind = SpanKind::kFetch;
  StatusCode status = StatusCode::kOk;
  std::uint16_t rank = 0;  ///< spans: the recording rank

  std::uint64_t end_us() const noexcept { return ts_us + dur_us; }
  bool operator==(const TraceEvent&) const = default;
};
static_assert(sizeof(TraceEvent) == 80, "one record holds every field of events and spans");

/// Fixed-capacity single-producer ring with drop-oldest overwrite, guarded
/// by its own lock.
class TraceBuffer {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8). The slots are
  /// reserved, not built: a ring touches its memory only as records arrive.
  explicit TraceBuffer(std::size_t capacity)
      : capacity_(round_up_capacity(capacity)), mask_(capacity_ - 1) {
    slots_.reserve(capacity_);
  }

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Appends `record`, overwriting the oldest one when full. The first lap
  /// appends within the reservation, so slot addresses never move.
  void emit(const TraceEvent& record) noexcept {
    const std::scoped_lock lock(mutex_);
    const auto slot = static_cast<std::size_t>(head_ & mask_);
    if (slot < slots_.size()) {
      slots_[slot] = record;
    } else {
      slots_.push_back(record);
    }
    ++head_;
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Records overwritten so far (drop-oldest accounting).
  std::uint64_t dropped() const noexcept {
    const std::scoped_lock lock(mutex_);
    return head_ > capacity_ ? head_ - capacity_ : 0;
  }

  /// Total records ever emitted.
  std::uint64_t emitted() const noexcept {
    const std::scoped_lock lock(mutex_);
    return head_;
  }

  /// Appends surviving records, oldest first, to `out` and returns the
  /// number ever emitted at the moment of the copy.
  std::uint64_t snapshot(std::vector<TraceEvent>& out) const {
    const std::scoped_lock lock(mutex_);
    const std::uint64_t n = head_ < capacity_ ? head_ : capacity_;
    out.reserve(out.size() + static_cast<std::size_t>(n));
    for (std::uint64_t i = head_ - n; i < head_; ++i) {
      out.push_back(slots_[static_cast<std::size_t>(i & mask_)]);
    }
    return head_;
  }

  /// Drops every record and restarts the accounting.
  void clear() noexcept {
    const std::scoped_lock lock(mutex_);
    head_ = 0;
  }

  /// The capacity a ring built for `requested` records gets.
  static std::size_t round_up_capacity(std::size_t requested) noexcept {
    std::size_t capacity = 8;
    while (capacity < requested) capacity <<= 1;
    return capacity;
  }

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t mask_;
  std::vector<TraceEvent> slots_;
  std::uint64_t head_ = 0;  ///< records ever emitted since the last clear
};

}  // namespace lobster::telemetry
