// Per-thread drop-oldest rings and the two record types they hold.
//
// Each recording thread owns one Ring<TraceEvent> and, from its first causal
// span on, one Ring<SpanRecord> beside it (single producer each). An emit
// never allocates: when the ring is full it overwrites the oldest record and
// accounts for it in `dropped()`, so a long run degrades to "the most recent
// N records" instead of unbounded memory or lost throughput.
//
// Snapshots read the head with an acquire load and copy surviving records
// oldest first. The index bookkeeping is race-free, but a snapshot taken
// while the producer wraps may copy a torn slot. Event rings are therefore
// read after their producers quiesce (end of a bench, pass or test); span
// rings are read live by the flight recorder, so the Tracer guards each one
// with a lock that only a snapshot contends on (telemetry.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
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

/// One completed causal span. `begin_us`/`end_us` are wall microseconds in
/// the Tracer's epoch, so spans and trace events share one timeline.
/// `arg`/`arg2` carry kind-specific payload (sample id, holder rank,
/// iteration, attempt index).
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 for a trace's root
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;
  std::uint64_t arg = 0;
  std::uint64_t arg2 = 0;
  SpanKind kind = SpanKind::kFetch;
  StatusCode status = StatusCode::kOk;
  std::uint16_t rank = 0;

  double duration_us() const noexcept {
    return end_us >= begin_us ? static_cast<double>(end_us - begin_us) : 0.0;
  }
  bool operator==(const SpanRecord&) const = default;
};

/// Fixed-capacity single-producer ring with drop-oldest overwrite.
template <typename T>
class Ring {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8). The slots are
  /// reserved, not built: a ring touches its memory only as records arrive.
  explicit Ring(std::size_t capacity)
      : capacity_(round_up_pow2(capacity)), mask_(capacity_ - 1) {
    slots_.reserve(capacity_);
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Single-producer append; overwrites the oldest record when full. The
  /// first lap appends within the reservation, so slot addresses never move.
  void emit(const T& record) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const auto slot = static_cast<std::size_t>(head & mask_);
    if (slot < slots_.size()) {
      slots_[slot] = record;
    } else {
      slots_.push_back(record);
    }
    head_.store(head + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Records overwritten so far (drop-oldest accounting).
  std::uint64_t dropped() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return head > capacity_ ? head - capacity_ : 0;
  }

  /// Total records ever emitted.
  std::uint64_t emitted() const noexcept { return head_.load(std::memory_order_acquire); }

  /// Appends surviving records, oldest first, to `out`.
  void snapshot(std::vector<T>& out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t n = head < capacity_ ? head : capacity_;
    out.reserve(out.size() + static_cast<std::size_t>(n));
    for (std::uint64_t i = head - n; i < head; ++i) {
      out.push_back(slots_[static_cast<std::size_t>(i & mask_)]);
    }
  }

  /// Reset hook; the caller keeps the producer quiescent (or holds its lock).
  void clear() noexcept { head_.store(0, std::memory_order_release); }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t capacity_;
  std::uint64_t mask_;
  std::vector<T> slots_;
  std::atomic<std::uint64_t> head_{0};
};

using TraceBuffer = Ring<TraceEvent>;

}  // namespace lobster::telemetry
