// Cross-node causal tracing (DESIGN.md §11).
//
// The per-stage tracer (telemetry.hpp) answers "where does time go on this
// rank"; it cannot answer "what happened to THIS fetch". A degraded fetch
// that timed out twice, tripped a breaker, detoured to a second holder and
// fell back to the PFS shows up there as four unrelated counter bumps. The
// causal layer ties them together:
//
//  * TraceContext — a (trace_id, span_id, parent_span_id) triple. Every
//    executor batch that reaches a peer roots a fresh trace; every
//    envelope, attempt, retry backoff, breaker fast-fail, holder detour
//    and PFS fallback opens a child span of the thread's current context.
//  * Propagation — the thread-current context is carried in a TLS slot
//    (Span installs itself on construction, restores on destruction) and
//    stamped into every comm::Message the thread sends, so the serving
//    rank's handler span links back to the REQUESTER's attempt span:
//    span trees genuinely cross ranks.
//  * SpanLog — a process-wide bounded ring of completed SpanRecords with
//    drop-oldest semantics (the flight recorder's source of truth), plus a
//    JSONL exporter (`lobster.spans.v1`) for tools/trace_report --spans.
//
// Cost model: everything is gated on one relaxed atomic load. When the log
// is disabled (the default) a Span constructor is a branch; the executor's
// warm local fast path contains no span code at all. Span ids are process-
// unique (splitmix64 over an atomic counter) and never zero; 64-bit ids are
// serialized as hex STRINGS because the analysis JSON parser holds numbers
// as doubles (53-bit mantissa).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "telemetry/clock.hpp"

namespace lobster::telemetry {

/// Causal coordinates of one span. trace_id == 0 means "no active trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const noexcept { return trace_id != 0; }
};

/// The calling thread's innermost open span (invalid outside any span).
/// MessageBus::do_send stamps this into every outgoing message.
TraceContext current_trace_context() noexcept;

/// Appends `id` as a quoted lowercase hex string. Span and event exporters
/// write ids this way because the analysis JSON parser holds numbers as
/// doubles, which would silently truncate 64-bit ids.
void append_hex_id(std::string& out, std::uint64_t id);

/// Span vocabulary. Fixed (not interned strings): the cross-node analyzer
/// attributes time by kind, so the set is part of the lobster.spans.v1
/// schema (tools/validate_metrics.py mirrors it).
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

/// One completed span. `begin_us`/`end_us` are wall microseconds in the
/// Tracer's epoch, so spans, trace events, and structured events share one
/// timeline. `arg`/`arg2` carry kind-specific payload (sample id, holder
/// rank, iteration, attempt index).
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;
  std::uint64_t arg = 0;
  std::uint64_t arg2 = 0;
  SpanKind kind = SpanKind::kFetch;
  StatusCode status = StatusCode::kOk;
  std::uint16_t rank = 0;
};

/// Process-wide bounded span sink. All ranks of the in-process cluster
/// share it, which is exactly what cross-rank stitching wants: the log IS
/// the cluster-wide view. Mutex-guarded — span volume is per remote fetch,
/// not per sample, and the warm path never reaches it.
class SpanLog {
 public:
  static SpanLog& instance();

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Ring capacity in records (default 32768); takes effect immediately,
  /// dropping the oldest surplus. Call with producers quiescent.
  void set_capacity(std::size_t spans);

  void record(const SpanRecord& span);

  /// Surviving records, oldest first.
  std::vector<SpanRecord> snapshot() const;

  std::uint64_t recorded() const noexcept { return recorded_.load(std::memory_order_relaxed); }
  /// Records lost to ring overwrite.
  std::uint64_t dropped() const;

  /// Drops records and the drop count; ids keep advancing (uniqueness).
  void clear();

  /// Process-unique non-zero span/trace id.
  std::uint64_t next_id() noexcept;

  /// One `lobster.spans.v1` line per record (no trailing newline).
  static void append_json(std::string& out, const SpanRecord& span);
  void write_jsonl(std::ostream& out) const;
  bool write_jsonl_file(const std::string& path) const;

 private:
  SpanLog() = default;

  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t capacity_ = 32768;
  std::uint64_t head_ = 0;  ///< records ever accepted; ring slot = head % cap
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> id_state_{0x5EED'CAFE'F00D'D1CEULL};
};

/// RAII span. Construction opens a child of the thread-current context (or
/// roots a new trace when there is none / when `remote_parent` is given)
/// and installs itself as the thread-current context; destruction restores
/// the previous context and records the span. Inert (no TLS write, no
/// clock read) when the SpanLog is disabled at construction.
class Span {
 public:
  /// An inert span: records nothing.
  Span() noexcept = default;
  /// Child of the thread-current context; roots a new trace when none.
  Span(SpanKind kind, std::uint16_t rank, std::uint64_t arg = 0) noexcept;
  /// Continues a propagated (cross-rank) context: same trace_id, parented
  /// under the sender's span. Invalid `remote_parent` => inert span.
  Span(SpanKind kind, std::uint16_t rank, const TraceContext& remote_parent,
       std::uint64_t arg = 0) noexcept;
  /// Moves an open span; `other` becomes inert. The thread-current context
  /// is held by value, so moving an installed span leaves it installed.
  Span(Span&& other) noexcept;
  /// Ends this span if it is open, then takes over `other`.
  Span& operator=(Span&& other) noexcept;
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// A child of `parent` (a new trace's root when `parent` is invalid) that
  /// is NOT installed as the thread-current context. Several may be open on
  /// one thread and end in any order, as multi-get envelopes posted before
  /// any is collected do; a send that should carry one runs inside a
  /// ScopedContext of it. Inert when the SpanLog is disabled.
  static Span detached(SpanKind kind, std::uint16_t rank, const TraceContext& parent,
                       std::uint64_t arg = 0) noexcept;

  /// Closes and records the span now; no-op when inert or already ended.
  /// An installed span restores the context it replaced.
  void end() noexcept;

  bool active() const noexcept { return active_; }
  void set_status(StatusCode code) noexcept { record_.status = code; }
  void set_arg(std::uint64_t v) noexcept { record_.arg = v; }
  void set_arg2(std::uint64_t v) noexcept { record_.arg2 = v; }

  /// This span's context (invalid when inert) — what a message send inside
  /// the span propagates.
  TraceContext context() const noexcept;

  /// Zero-duration child of the thread-current context (detours, breaker
  /// fast-fails). Outside any context it roots a fresh trace of its own, so
  /// a fast-fail of a bare fetch_remote_many is still recorded. No-op when
  /// the log is disabled.
  static void instant(SpanKind kind, std::uint16_t rank, std::uint64_t arg = 0,
                      std::uint64_t arg2 = 0) noexcept;

 private:
  void open(SpanKind kind, std::uint16_t rank, std::uint64_t trace_id,
            std::uint64_t parent_span_id, std::uint64_t arg, bool install) noexcept;

  SpanRecord record_{};
  TraceContext saved_{};
  bool active_ = false;
  bool installed_ = false;
};

/// Installs `context` as the thread-current context for its lifetime and
/// then restores the previous one, so a send inside it propagates
/// `context`. No-op for an invalid context.
class ScopedContext {
 public:
  explicit ScopedContext(const TraceContext& context) noexcept;
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceContext saved_{};
  bool installed_ = false;
};

}  // namespace lobster::telemetry
