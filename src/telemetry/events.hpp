// Typed structured event log (`lobster.events.v1`, DESIGN.md §11).
//
// Heartbeats say "something is off this window"; spans say "this fetch took
// this path"; events record the discrete STATE TRANSITIONS in between: a
// job was admitted, a node was declared down, a breaker opened, a payload
// was quarantined, the watchdog flagged a stall. Each event carries the
// trace_id of the thread-current span (when one is open), so an incident
// bundle can jump from "breaker 2 opened" straight to the fetch trace that
// tripped it.
//
// Cost model: one relaxed atomic load when disabled, a mutex-guarded
// bounded ring (+ optional streaming JSONL sink) when on. Event volume is
// per state transition — orders of magnitude below sample throughput — so
// one process-wide mutex is the right tool; causal spans, which come per
// remote fetch, ride the Tracer's per-thread rings instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lobster::telemetry {

/// Event taxonomy. Part of the lobster.events.v1 schema; mirrored by
/// tools/validate_metrics.py --events.
enum class EventKind : std::uint8_t {
  kJobAdmitted = 0,    ///< cluster scheduler admitted a job (a = nodes)
  kJobFinished,        ///< job retired (a = rounds in system)
  kNodeDown,           ///< remote tier declared a node down (node = which)
  kNodeRejoin,         ///< recovery re-admitted a node (a = samples restored)
  kBreakerOpen,        ///< per-peer circuit breaker opened (a = strikes)
  kBreakerClose,       ///< breaker reset after a successful fetch
  kQuarantine,         ///< corrupt payload quarantined (a = sample id)
  kWatchdogStall,      ///< iteration exceeded the stall deadline (a = iter)
  kServeSendFailure,   ///< serve-side reply send failed (a = request id)
  kIncident,           ///< flight recorder dumped a bundle (a = bundle seq)
  kJobPreempted,       ///< scheduler evicted a running job (a = width, b = run rounds)
  kJobResumed,         ///< preempted job restored from checkpoint (a = width, b = wait rounds)
  kJobResized,         ///< elastic job re-placed (a = old width, b = new width)
  kKindCount,
};

const char* event_kind_name(EventKind kind) noexcept;

/// One structured event. `ts_us` shares the Tracer wall epoch with spans.
/// `detail` is small free-form context (job name, breaker holder), kept out
/// of the hot constructor path — events are rare.
struct EventRecord {
  std::uint64_t seq = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t trace_id = 0;  ///< correlating trace (0 = none open)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  EventKind kind = EventKind::kJobAdmitted;
  std::uint16_t node = 0;
  std::string detail;
};

/// Process-wide event sink: bounded drop-oldest ring (flight-recorder
/// source) plus an optional always-on JSONL stream for live tailing.
class EventLog {
 public:
  static EventLog& instance();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a streaming JSONL sink; every subsequent emit appends one line.
  /// Returns false (and leaves streaming off) when the file can't open.
  bool open_stream(const std::string& path);
  void close_stream();

  /// Records an event. Stamps seq / wall timestamp / the thread-current
  /// trace_id. No-op when disabled.
  void emit(EventKind kind, std::uint16_t node = 0, std::uint64_t a = 0,
            std::uint64_t b = 0, std::string detail = {});

  std::vector<EventRecord> snapshot() const;
  std::uint64_t emitted() const noexcept { return emitted_.load(std::memory_order_relaxed); }
  void clear();

  /// One `lobster.events.v1` line (no trailing newline).
  static void append_json(std::string& out, const EventRecord& event);
  void write_jsonl(std::ostream& out) const;
  bool write_jsonl_file(const std::string& path) const;

 private:
  EventLog() = default;

  mutable std::mutex mutex_;
  std::vector<EventRecord> ring_;
  std::size_t capacity_ = 8192;
  std::uint64_t head_ = 0;
  std::uint64_t next_seq_ = 1;
  std::ofstream stream_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> emitted_{0};
};

}  // namespace lobster::telemetry
