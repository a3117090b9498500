#include "telemetry/events.hpp"

#include "telemetry/analysis/json.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::telemetry {

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kJobAdmitted: return "job_admitted";
    case EventKind::kJobFinished: return "job_finished";
    case EventKind::kNodeDown: return "node_down";
    case EventKind::kNodeRejoin: return "node_rejoin";
    case EventKind::kBreakerOpen: return "breaker_open";
    case EventKind::kBreakerClose: return "breaker_close";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kWatchdogStall: return "watchdog_stall";
    case EventKind::kServeSendFailure: return "serve_send_failure";
    case EventKind::kIncident: return "incident";
    case EventKind::kJobPreempted: return "job_preempted";
    case EventKind::kJobResumed: return "job_resumed";
    case EventKind::kJobResized: return "job_resized";
    case EventKind::kKindCount: break;
  }
  return "unknown";
}

EventLog& EventLog::instance() {
  static EventLog log;
  return log;
}

bool EventLog::open_stream(const std::string& path) {
  std::lock_guard lock(mutex_);
  stream_.close();
  stream_.clear();
  stream_.open(path);
  return stream_.is_open();
}

void EventLog::close_stream() {
  std::lock_guard lock(mutex_);
  stream_.close();
}

void EventLog::emit(EventKind kind, std::uint16_t node, std::uint64_t a,
                    std::uint64_t b, std::string detail) {
  if (!enabled()) return;
  EventRecord event;
  event.ts_us = Tracer::instance().wall_now_us();
  event.trace_id = current_trace_context().trace_id;
  event.a = a;
  event.b = b;
  event.kind = kind;
  event.node = node;
  event.detail = std::move(detail);
  emitted_.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard lock(mutex_);
  event.seq = next_seq_++;
  if (stream_.is_open()) {
    std::string line;
    append_json(line, event);
    line.push_back('\n');
    stream_ << line << std::flush;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    ++head_;
  } else {
    ring_[head_ % capacity_] = std::move(event);
    ++head_;
  }
}

std::vector<EventRecord> EventLog::snapshot() const {
  std::lock_guard lock(mutex_);
  if (ring_.size() < capacity_ || head_ <= capacity_) return ring_;
  std::vector<EventRecord> out;
  out.reserve(ring_.size());
  const auto start = head_ % capacity_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

void EventLog::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  head_ = 0;
  next_seq_ = 1;
  emitted_.store(0, std::memory_order_relaxed);
}

void EventLog::append_json(std::string& out, const EventRecord& event) {
  out += "{\"schema\":\"lobster.events.v1\",\"seq\":" + std::to_string(event.seq);
  out += ",\"ts_us\":" + std::to_string(event.ts_us);
  out += ",\"kind\":\"";
  out += event_kind_name(event.kind);
  out += "\",\"trace\":\"";
  append_hex_id(out, event.trace_id);
  out += "\",\"node\":" + std::to_string(event.node);
  out += ",\"a\":" + std::to_string(event.a);
  out += ",\"b\":" + std::to_string(event.b);
  out += ",\"detail\":";
  analysis::append_json_quoted(out, event.detail);
  out += "}";
}

void EventLog::write_jsonl(std::ostream& out) const {
  std::string line;
  for (const auto& event : snapshot()) {
    line.clear();
    append_json(line, event);
    line.push_back('\n');
    out << line;
  }
}

bool EventLog::write_jsonl_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out);
  return out.good();
}

}  // namespace lobster::telemetry
