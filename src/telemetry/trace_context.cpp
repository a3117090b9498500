#include "telemetry/trace_context.hpp"

#include <utility>

#include "telemetry/telemetry.hpp"

namespace lobster::telemetry {
namespace {

// Thread-current causal context. Plain TLS (no dynamic init): a triple of
// zeros is the valid "no trace" state.
thread_local TraceContext g_current_context{};

}  // namespace

TraceContext current_trace_context() noexcept { return g_current_context; }

void append_hex_id(std::string& out, std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const auto nibble = (id >> shift) & 0xF;
    if (nibble != 0) started = true;
    if (started || shift == 0) out.push_back(kDigits[nibble]);
  }
}

void write_spans_jsonl(std::ostream& out, const std::vector<TraceEvent>& spans) {
  std::string line;
  for (const auto& span : spans) {
    line = "{\"schema\":\"lobster.spans.v1\",\"trace\":\"";
    append_hex_id(line, span.trace_id);
    line += "\",\"span\":\"";
    append_hex_id(line, span.span_id);
    line += "\",\"parent\":\"";
    append_hex_id(line, span.parent_span_id);
    line += "\",\"kind\":\"";
    line += span_kind_name(span.kind);
    line += "\",\"status\":\"";
    line += status_code_name(span.status);
    line += "\",\"rank\":" + std::to_string(span.rank);
    line += ",\"begin_us\":" + std::to_string(span.ts_us);
    line += ",\"end_us\":" + std::to_string(span.end_us());
    line += ",\"arg\":" + std::to_string(span.arg);
    line += ",\"arg2\":" + std::to_string(span.arg2);
    line += "}\n";
    out << line;
  }
}

Span::Span(SpanKind kind, std::uint16_t rank, std::uint64_t arg) noexcept {
  auto& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  const TraceContext parent = g_current_context;
  const std::uint64_t trace_id = parent.valid() ? parent.trace_id : tracer.next_id();
  open(kind, rank, trace_id, parent.span_id, arg, /*install=*/true);
}

Span::Span(SpanKind kind, std::uint16_t rank, const TraceContext& remote_parent,
           std::uint64_t arg) noexcept {
  if (!Tracer::instance().enabled() || !remote_parent.valid()) return;
  open(kind, rank, remote_parent.trace_id, remote_parent.span_id, arg, /*install=*/true);
}

Span::Span(Span&& other) noexcept
    : record_(other.record_),
      saved_(other.saved_),
      active_(std::exchange(other.active_, false)),
      installed_(other.installed_) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    record_ = other.record_;
    saved_ = other.saved_;
    active_ = std::exchange(other.active_, false);
    installed_ = other.installed_;
  }
  return *this;
}

Span Span::detached(SpanKind kind, std::uint16_t rank, const TraceContext& parent,
                    std::uint64_t arg) noexcept {
  Span span;
  auto& tracer = Tracer::instance();
  if (!tracer.enabled()) return span;
  const std::uint64_t trace_id = parent.valid() ? parent.trace_id : tracer.next_id();
  span.open(kind, rank, trace_id, parent.span_id, arg, /*install=*/false);
  return span;
}

void Span::open(SpanKind kind, std::uint16_t rank, std::uint64_t trace_id,
                std::uint64_t parent_span_id, std::uint64_t arg, bool install) noexcept {
  auto& tracer = Tracer::instance();
  record_.trace_id = trace_id;
  record_.span_id = tracer.next_id();
  record_.parent_span_id = parent_span_id;
  record_.ts_us = tracer.wall_now_us();
  record_.arg = arg;
  record_.kind = kind;
  record_.rank = rank;
  active_ = true;
  installed_ = install;
  if (install) {
    saved_ = g_current_context;
    g_current_context =
        TraceContext{record_.trace_id, record_.span_id, record_.parent_span_id};
  }
}

void Span::end() noexcept {
  if (!active_) return;
  active_ = false;
  if (installed_) g_current_context = saved_;
  auto& tracer = Tracer::instance();
  const std::uint64_t end_us = tracer.wall_now_us();
  record_.dur_us = end_us > record_.ts_us ? end_us - record_.ts_us : 0;
  tracer.emit_wall(record_);
}

TraceContext Span::context() const noexcept {
  if (!active_) return {};
  return TraceContext{record_.trace_id, record_.span_id, record_.parent_span_id};
}

void Span::instant(SpanKind kind, std::uint16_t rank, std::uint64_t arg,
                   std::uint64_t arg2) noexcept {
  auto& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  const TraceContext parent = g_current_context;
  TraceEvent record;
  record.trace_id = parent.valid() ? parent.trace_id : tracer.next_id();
  record.span_id = tracer.next_id();
  record.parent_span_id = parent.span_id;
  record.ts_us = tracer.wall_now_us();
  record.arg = arg;
  record.arg2 = arg2;
  record.kind = kind;
  record.rank = rank;
  tracer.emit_wall(record);
}

ScopedContext::ScopedContext(const TraceContext& context) noexcept {
  if (!context.valid()) return;
  saved_ = g_current_context;
  g_current_context = context;
  installed_ = true;
}

ScopedContext::~ScopedContext() {
  if (installed_) g_current_context = saved_;
}

}  // namespace lobster::telemetry
