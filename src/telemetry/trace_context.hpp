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
//  * Recording — a closed span is a TraceEvent with a non-zero trace_id. It
//    lands in the calling thread's one ring in the Tracer (telemetry.hpp)
//    through the same emit, under the same switch and the same drop count
//    as trace events. All ranks of the in-process cluster share the Tracer,
//    which is exactly what cross-rank stitching wants: the `spans` of its
//    snapshot ARE the cluster-wide view. write_spans_jsonl renders them as
//    `lobster.spans.v1` for tools/trace_report --spans and incident bundles
//    (begin_us = ts_us, end_us = ts_us + dur_us).
//
// Cost model: everything is gated on Tracer::enabled(), one relaxed atomic
// load. When tracing is off (the default) a Span constructor is a branch;
// the executor's warm local fast path contains no span code at all. Span
// ids are process-unique (Tracer::next_id) and never zero; 64-bit ids are
// serialized as hex STRINGS because the analysis JSON parser holds numbers
// as doubles (53-bit mantissa).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "telemetry/trace_buffer.hpp"

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

/// Appends `id` as lowercase hex digits, no leading zeros ("0" for zero).
/// Span and event exporters write ids as quoted strings of these digits
/// because the analysis JSON parser holds numbers as doubles, which would
/// silently truncate 64-bit ids.
void append_hex_id(std::string& out, std::uint64_t id);

/// Writes one `lobster.spans.v1` JSON line per span.
void write_spans_jsonl(std::ostream& out, const std::vector<TraceEvent>& spans);

/// RAII span. Construction opens a child of the thread-current context (or
/// roots a new trace when there is none / when `remote_parent` is given)
/// and installs itself as the thread-current context; destruction restores
/// the previous context and records the span. Inert (no TLS write, no
/// clock read) when the Tracer is disabled at construction.
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
  /// ScopedContext of it. Inert when the Tracer is disabled.
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
  /// the Tracer is disabled.
  static void instant(SpanKind kind, std::uint16_t rank, std::uint64_t arg = 0,
                      std::uint64_t arg2 = 0) noexcept;

 private:
  void open(SpanKind kind, std::uint16_t rank, std::uint64_t trace_id,
            std::uint64_t parent_span_id, std::uint64_t arg, bool install) noexcept;

  TraceEvent record_{};
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
