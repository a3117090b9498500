// Unified tracing facade: one process-wide Tracer, one ring buffer per
// recording thread, two time domains, and statement macros that compile to
// a relaxed-load + branch when tracing is off.
//
// The Tracer is the only recorder, and TraceEvent (trace_buffer.hpp) its
// only record. A thread gets its ring on its first record, trace event or
// causal span (trace_context.hpp) alike, and both record whenever
// enabled() is true. When the thread exits, its ring and track go to a free
// list; the next thread to record adopts a free ring of the current
// capacity, records kept, so a process that starts threads per pass holds
// as many rings as it ever ran threads at once. Overwrites in an adopted
// ring count in `dropped` like any other.
//
// Kill switches:
//  * compile time — build with -DLOBSTER_TELEMETRY_DISABLED (CMake option
//    LOBSTER_TELEMETRY=OFF) and every LOBSTER_TRACE_* / LOBSTER_METRIC_*
//    macro expands to nothing;
//  * run time — Tracer::set_enabled(false) (the default). Disabled macros
//    cost one relaxed atomic load and a predictable branch.
//
// Domains: wall-clock events stamp themselves from a steady clock and land
// on the calling thread's track. Virtual-domain events carry explicit
// simulated timestamps and a caller-allocated track (new_track). Code that
// is shared between both worlds (the caches, the thread pool) emits
// *auto-domain* instants: inside a VirtualTimeScope they are pinned to the
// scope's virtual (track, time); otherwise they fall back to wall time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/clock.hpp"
#include "telemetry/trace_buffer.hpp"

namespace lobster::telemetry {

/// Everything an exporter needs, decoupled from live buffers. The records
/// of every ring split in two: causal spans (trace_id != 0) and the rest.
/// `dropped` and `emitted` count both kinds.
struct TraceSnapshot {
  std::vector<TraceEvent> events;    ///< trace events, merged across threads, unsorted
  std::vector<TraceEvent> spans;     ///< causal spans, oldest first by end
  std::vector<std::string> names;    ///< interned event names by name_id
  std::vector<std::string> tracks;   ///< track names by track id
  std::uint64_t dropped = 0;         ///< records lost to ring overwrite
  std::uint64_t emitted = 0;         ///< records ever written
  std::uint32_t buffers = 0;         ///< per-thread rings merged into this snapshot

  /// True when no ring overwrote a record — the snapshot is the whole run.
  bool complete() const noexcept { return dropped == 0; }
};

class Tracer {
 public:
  static Tracer& instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Metrics-only mode: LOBSTER_METRIC_* aggregation stays live without
  /// paying for trace-event recording — what the live monitor needs when no
  /// trace artifact was requested. Event macros still require enabled().
  bool metrics_enabled() const noexcept {
    return metrics_enabled_.load(std::memory_order_relaxed);
  }
  void set_metrics_enabled(bool on) noexcept {
    metrics_enabled_.store(on, std::memory_order_relaxed);
  }

  /// Interns `name`, returning a stable id. Cheap after the first call for a
  /// given string; hot call sites cache the id in a function-local static.
  std::uint32_t intern(std::string_view name);

  /// Allocates a named timeline for virtual-domain events (one per simulated
  /// node, engine, ...). Thread tracks are allocated implicitly.
  std::uint32_t new_track(std::string_view name);

  /// Ring capacity (records) for rings a thread gets after this call. An
  /// exited thread's ring is adopted only by a thread asking for its size.
  void set_buffer_capacity(std::size_t records) noexcept;

  /// Microseconds since tracer construction (the wall-domain epoch).
  std::uint64_t wall_now_us() const noexcept;

  // ---- wall domain (timestamps implicit) --------------------------------
  void instant_wall(Category category, std::uint32_t name, std::uint64_t arg = 0) noexcept;
  void complete_wall(Category category, std::uint32_t name, std::uint64_t begin_us,
                     std::uint64_t end_us, std::uint64_t arg = 0) noexcept;
  void counter_wall(Category category, std::uint32_t name, double value) noexcept;

  // ---- virtual domain (explicit simulated timestamps) -------------------
  void instant_at(Category category, std::uint32_t name, std::uint32_t track, Seconds at,
                  std::uint64_t arg = 0) noexcept;
  void complete_at(Category category, std::uint32_t name, std::uint32_t track, Seconds begin,
                   Seconds end, std::uint64_t arg = 0) noexcept;
  void counter_at(Category category, std::uint32_t name, std::uint32_t track, Seconds at,
                  double value) noexcept;

  // ---- auto domain (virtual inside a VirtualTimeScope, else wall) -------
  void instant_auto(Category category, std::uint32_t name, std::uint64_t arg = 0) noexcept;
  void counter_auto(Category category, std::uint32_t name, double value) noexcept;

  /// Appends `record` to the calling thread's ring as a wall-domain record
  /// on the thread's track. The wall helpers above and causal spans
  /// (trace_context.hpp) all record through it; Span checks enabled() first.
  void emit_wall(TraceEvent record) noexcept;

  // ---- causal spans (trace_context.hpp) --------------------------------
  /// Process-unique non-zero span/trace id.
  std::uint64_t next_id() noexcept;

  /// Copies out every ring and the string tables. Safe while producers
  /// run: each ring is copied under its own lock, which the flight
  /// recorder relies on.
  TraceSnapshot snapshot() const;

  /// Records lost to ring overwrite across all per-thread buffers. Cheap
  /// enough for the live monitor's heartbeat sampling.
  std::uint64_t dropped_events() const noexcept;
  /// Records ever emitted across all per-thread buffers.
  std::uint64_t emitted_events() const noexcept;

  /// Drops recorded events, spans and overflow counts. Interned names,
  /// tracks, thread rings and the id sequence survive (call sites cache ids
  /// in statics; span ids stay unique).
  void reset() noexcept;

 private:
  friend class VirtualTimeScope;

  struct VirtualContext {
    std::uint64_t ts_us = 0;
    std::uint32_t track = 0;
    bool active = false;
  };

  /// An exited thread's ring and the track its records name.
  struct FreeRing {
    TraceBuffer* buffer;
    std::uint32_t track;
  };

  Tracer();

  TraceBuffer& thread_buffer() {
    TraceBuffer* buffer = tls_buffer_;
    return buffer != nullptr ? *buffer : adopt_buffer();
  }
  /// First record of a thread: adopts a free ring or allocates one.
  TraceBuffer& adopt_buffer();
  /// Thread-exit hook: hands the thread's ring and track to `free_rings_`.
  void release_buffer() noexcept;
  /// Appends a virtual-domain record on the caller-allocated `track`.
  void emit_virtual(TraceEvent record, std::uint32_t track) noexcept;

  static thread_local TraceBuffer* tls_buffer_;
  static thread_local std::uint32_t tls_track_;
  static thread_local bool tls_released_;
  static thread_local VirtualContext tls_virtual_;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> metrics_enabled_{false};
  std::atomic<std::size_t> buffer_capacity_;
  std::atomic<std::uint64_t> id_state_{0x5EED'CAFE'F00D'D1CEULL};
  WallClock::time_point epoch_;

  mutable std::mutex mutex_;  // guards the tables below (cold paths only)
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  std::vector<FreeRing> free_rings_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::vector<std::string> tracks_;
};

/// True when tracing is compiled in and runtime-enabled.
inline bool active() noexcept { return Tracer::instance().enabled(); }

/// True when metric aggregation should run: full tracing or metrics-only
/// mode. The LOBSTER_METRIC_* macros gate on this, not on active().
inline bool metrics_active() noexcept {
  auto& tracer = Tracer::instance();
  return tracer.enabled() || tracer.metrics_enabled();
}

/// RAII wall-clock span: records begin on construction, emits a kComplete
/// record on destruction. No-op (and no timestamp read) when tracing is off
/// at construction.
class ScopedSpan {
 public:
  ScopedSpan(Category category, std::uint32_t name, std::uint64_t arg = 0) noexcept {
    auto& tracer = Tracer::instance();
    if (tracer.enabled()) {
      active_ = true;
      category_ = category;
      name_ = name;
      arg_ = arg;
      begin_us_ = tracer.wall_now_us();
    }
  }
  ~ScopedSpan() {
    if (!active_) return;
    auto& tracer = Tracer::instance();
    tracer.complete_wall(category_, name_, begin_us_, tracer.wall_now_us(), arg_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t begin_us_ = 0;
  std::uint64_t arg_ = 0;
  std::uint32_t name_ = 0;
  Category category_ = Category::kCommon;
  bool active_ = false;
};

/// Pins this thread's auto-domain events to a virtual (track, time) for the
/// scope's lifetime. Scopes nest; the previous context is restored.
class VirtualTimeScope {
 public:
  VirtualTimeScope(std::uint32_t track, Seconds now) noexcept : saved_(Tracer::tls_virtual_) {
    Tracer::tls_virtual_ = {to_micros(now), track, true};
  }
  ~VirtualTimeScope() { Tracer::tls_virtual_ = saved_; }

  VirtualTimeScope(const VirtualTimeScope&) = delete;
  VirtualTimeScope& operator=(const VirtualTimeScope&) = delete;

  /// Moves the scope's virtual clock (e.g. as a simulated stage finishes).
  void set_now(Seconds now) noexcept { Tracer::tls_virtual_.ts_us = to_micros(now); }

 private:
  Tracer::VirtualContext saved_;
};

}  // namespace lobster::telemetry

// ---------------------------------------------------------------------------
// Statement macros. All are safe in headers and cost a relaxed load + branch
// when tracing is runtime-disabled; with LOBSTER_TELEMETRY_DISABLED they
// vanish entirely.
// ---------------------------------------------------------------------------
#if !defined(LOBSTER_TELEMETRY_DISABLED)

#define LOBSTER_TRACE_CAT2_(a, b) a##b
#define LOBSTER_TRACE_CAT_(a, b) LOBSTER_TRACE_CAT2_(a, b)

/// Interns a string literal once per call site.
#define LOBSTER_TRACE_NAME_ID(literal)                                                   \
  ([]() -> std::uint32_t {                                                               \
    static const std::uint32_t lobster_interned_id =                                     \
        ::lobster::telemetry::Tracer::instance().intern(literal);                        \
    return lobster_interned_id;                                                          \
  }())

/// RAII wall-clock span over the enclosing scope.
#define LOBSTER_TRACE_SPAN(category, literal)                                            \
  const ::lobster::telemetry::ScopedSpan LOBSTER_TRACE_CAT_(lobster_span_, __LINE__){    \
      ::lobster::telemetry::Category::category, LOBSTER_TRACE_NAME_ID(literal)}

#define LOBSTER_TRACE_SPAN_ARG(category, literal, arg_value)                             \
  const ::lobster::telemetry::ScopedSpan LOBSTER_TRACE_CAT_(lobster_span_, __LINE__){    \
      ::lobster::telemetry::Category::category, LOBSTER_TRACE_NAME_ID(literal),          \
      static_cast<std::uint64_t>(arg_value)}

/// Point event; virtual-domain inside a VirtualTimeScope, else wall.
#define LOBSTER_TRACE_INSTANT(category, literal, arg_value)                              \
  do {                                                                                   \
    auto& lobster_tracer_ = ::lobster::telemetry::Tracer::instance();                    \
    if (lobster_tracer_.enabled()) {                                                     \
      lobster_tracer_.instant_auto(::lobster::telemetry::Category::category,             \
                                   LOBSTER_TRACE_NAME_ID(literal),                       \
                                   static_cast<std::uint64_t>(arg_value));               \
    }                                                                                    \
  } while (0)

/// Sampled value; virtual-domain inside a VirtualTimeScope, else wall.
#define LOBSTER_TRACE_COUNTER(category, literal, value_expr)                             \
  do {                                                                                   \
    auto& lobster_tracer_ = ::lobster::telemetry::Tracer::instance();                    \
    if (lobster_tracer_.enabled()) {                                                     \
      lobster_tracer_.counter_auto(::lobster::telemetry::Category::category,             \
                                   LOBSTER_TRACE_NAME_ID(literal),                       \
                                   static_cast<double>(value_expr));                     \
    }                                                                                    \
  } while (0)

#else  // LOBSTER_TELEMETRY_DISABLED

#define LOBSTER_TRACE_NAME_ID(literal) 0U
#define LOBSTER_TRACE_SPAN(category, literal) do {} while (0)
#define LOBSTER_TRACE_SPAN_ARG(category, literal, arg_value) do {} while (0)
#define LOBSTER_TRACE_INSTANT(category, literal, arg_value) do {} while (0)
#define LOBSTER_TRACE_COUNTER(category, literal, value_expr) do {} while (0)

#endif  // LOBSTER_TELEMETRY_DISABLED
