#include "telemetry/trace_context.hpp"

#include <fstream>
#include <utility>

#include "common/rng.hpp"
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
  out.push_back('"');
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const auto nibble = (id >> shift) & 0xF;
    if (nibble != 0) started = true;
    if (started || shift == 0) out.push_back(kDigits[nibble]);
  }
  out.push_back('"');
}

const char* span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kFetch: return "fetch";
    case SpanKind::kAttempt: return "attempt";
    case SpanKind::kBackoff: return "backoff";
    case SpanKind::kServe: return "serve";
    case SpanKind::kDetour: return "detour";
    case SpanKind::kPfsFallback: return "pfs_fallback";
    case SpanKind::kBreakerFastFail: return "breaker_fast_fail";
    case SpanKind::kInventoryProbe: return "inventory_probe";
    case SpanKind::kMultiGet: return "multi_get";
    case SpanKind::kKindCount: break;
  }
  return "unknown";
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::set_capacity(std::size_t spans) {
  std::lock_guard lock(mutex_);
  if (spans == 0) spans = 1;
  // Re-linearize the ring oldest-first before adopting the new capacity so
  // slot arithmetic stays `head_ % capacity_`.
  std::vector<SpanRecord> ordered;
  ordered.reserve(ring_.size());
  if (ring_.size() == capacity_ && head_ > capacity_) {
    const auto start = head_ % capacity_;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      ordered.push_back(ring_[(start + i) % capacity_]);
    }
  } else {
    ordered = ring_;
  }
  if (ordered.size() > spans) {
    ordered.erase(ordered.begin(),
                  ordered.begin() + static_cast<std::ptrdiff_t>(ordered.size() - spans));
  }
  capacity_ = spans;
  ring_ = std::move(ordered);
  head_ = ring_.size();
}

void SpanLog::record(const SpanRecord& span) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
    ++head_;
  } else {
    ring_[head_ % capacity_] = span;
    ++head_;
  }
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::lock_guard lock(mutex_);
  if (ring_.size() < capacity_ || head_ <= capacity_) return ring_;
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  const auto start = head_ % capacity_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard lock(mutex_);
  return head_ > ring_.size() ? head_ - ring_.size() : 0;
}

void SpanLog::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  head_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
}

std::uint64_t SpanLog::next_id() noexcept {
  // splitmix64 over a shared counter: each fetch_add claims a distinct
  // state, so concurrent callers get distinct (and well-mixed) ids.
  std::uint64_t state =
      id_state_.fetch_add(0x9E3779B97F4A7C15ULL, std::memory_order_relaxed);
  std::uint64_t id = splitmix64(state);
  return id != 0 ? id : 1;
}

void SpanLog::append_json(std::string& out, const SpanRecord& span) {
  out += "{\"schema\":\"lobster.spans.v1\",\"trace\":";
  append_hex_id(out, span.trace_id);
  out += ",\"span\":";
  append_hex_id(out, span.span_id);
  out += ",\"parent\":";
  append_hex_id(out, span.parent_span_id);
  out += ",\"kind\":\"";
  out += span_kind_name(span.kind);
  out += "\",\"status\":\"";
  out += status_code_name(span.status);
  out += "\",\"rank\":" + std::to_string(span.rank);
  out += ",\"begin_us\":" + std::to_string(span.begin_us);
  out += ",\"end_us\":" + std::to_string(span.end_us);
  out += ",\"arg\":" + std::to_string(span.arg);
  out += ",\"arg2\":" + std::to_string(span.arg2);
  out += "}";
}

void SpanLog::write_jsonl(std::ostream& out) const {
  std::string line;
  for (const auto& span : snapshot()) {
    line.clear();
    append_json(line, span);
    line.push_back('\n');
    out << line;
  }
}

bool SpanLog::write_jsonl_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out);
  return out.good();
}

Span::Span(SpanKind kind, std::uint16_t rank, std::uint64_t arg) noexcept {
  auto& log = SpanLog::instance();
  if (!log.enabled()) return;
  const TraceContext parent = g_current_context;
  const std::uint64_t trace_id = parent.valid() ? parent.trace_id : log.next_id();
  open(kind, rank, trace_id, parent.span_id, arg, /*install=*/true);
}

Span::Span(SpanKind kind, std::uint16_t rank, const TraceContext& remote_parent,
           std::uint64_t arg) noexcept {
  auto& log = SpanLog::instance();
  if (!log.enabled() || !remote_parent.valid()) return;
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
  auto& log = SpanLog::instance();
  if (!log.enabled()) return span;
  const std::uint64_t trace_id = parent.valid() ? parent.trace_id : log.next_id();
  span.open(kind, rank, trace_id, parent.span_id, arg, /*install=*/false);
  return span;
}

void Span::open(SpanKind kind, std::uint16_t rank, std::uint64_t trace_id,
                std::uint64_t parent_span_id, std::uint64_t arg, bool install) noexcept {
  record_.trace_id = trace_id;
  record_.span_id = SpanLog::instance().next_id();
  record_.parent_span_id = parent_span_id;
  record_.begin_us = Tracer::instance().wall_now_us();
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
  record_.end_us = Tracer::instance().wall_now_us();
  SpanLog::instance().record(record_);
}

TraceContext Span::context() const noexcept {
  if (!active_) return {};
  return TraceContext{record_.trace_id, record_.span_id, record_.parent_span_id};
}

void Span::instant(SpanKind kind, std::uint16_t rank, std::uint64_t arg,
                   std::uint64_t arg2) noexcept {
  auto& log = SpanLog::instance();
  if (!log.enabled()) return;
  const TraceContext parent = g_current_context;
  SpanRecord record;
  record.trace_id = parent.valid() ? parent.trace_id : log.next_id();
  record.span_id = log.next_id();
  record.parent_span_id = parent.span_id;
  record.begin_us = Tracer::instance().wall_now_us();
  record.end_us = record.begin_us;
  record.arg = arg;
  record.arg2 = arg2;
  record.kind = kind;
  record.rank = rank;
  log.record(record);
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
