#include "telemetry/flight_recorder.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/logging.hpp"
#include "telemetry/analysis/json.hpp"
#include "telemetry/events.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::telemetry {
namespace fs = std::filesystem;

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)) {
  if (config_.max_heartbeats == 0) config_.max_heartbeats = 1;
}

void FlightRecorder::record_heartbeat(std::string line) {
  std::lock_guard lock(mutex_);
  heartbeats_.push_back(std::move(line));
  while (heartbeats_.size() > config_.max_heartbeats) heartbeats_.pop_front();
}

IncidentResult FlightRecorder::trigger(const std::string& reason) {
  const auto now_us = Tracer::instance().wall_now_us();
  std::vector<std::string> heartbeats;
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(mutex_);
    const auto cooldown_us = static_cast<std::uint64_t>(config_.cooldown_s * 1e6);
    const bool in_cooldown =
        bundles_ > 0 && now_us >= last_dump_us_ && now_us - last_dump_us_ < cooldown_us;
    if (bundles_ >= config_.max_bundles || in_cooldown || config_.out_dir.empty()) {
      ++suppressed_;
      return {};
    }
    seq = ++bundles_;
    last_dump_us_ = now_us;
    heartbeats.assign(heartbeats_.begin(), heartbeats_.end());
  }

  // Freeze the shared rings OUTSIDE our own lock: producers keep running
  // during the dump, and the Tracer's rings and the EventLog each copy
  // under locks of their own.
  const TraceSnapshot trace = Tracer::instance().snapshot();
  const auto events = EventLog::instance().snapshot();

  char name[32];
  std::snprintf(name, sizeof(name), "incident-%03llu",
                static_cast<unsigned long long>(seq));
  const fs::path dir = fs::path(config_.out_dir) / name;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    log::warn("flight_recorder: cannot create %s: %s", dir.string().c_str(),
              ec.message().c_str());
    std::lock_guard lock(mutex_);
    --bundles_;
    ++suppressed_;
    return {};
  }

  {
    std::ofstream out(dir / "spans.jsonl");
    write_spans_jsonl(out, trace.spans);
  }
  {
    std::ofstream out(dir / "events.jsonl");
    std::string line;
    for (const auto& event : events) {
      line.clear();
      EventLog::append_json(line, event);
      line.push_back('\n');
      out << line;
    }
  }
  {
    std::ofstream out(dir / "heartbeats.jsonl");
    for (const auto& beat : heartbeats) out << beat << '\n';
  }
  MetricRegistry::instance().write_csv_file((dir / "metrics.csv").string());

  std::string manifest = "{\"schema\":\"lobster.incident.v1\",\"reason\":";
  analysis::append_json_quoted(manifest, reason);
  manifest += ",\"seq\":" + std::to_string(seq);
  manifest += ",\"ts_us\":" + std::to_string(now_us);
  manifest += ",\"spans\":" + std::to_string(trace.spans.size());
  manifest += ",\"events\":" + std::to_string(events.size());
  manifest += ",\"heartbeats\":" + std::to_string(heartbeats.size());
  // Rings hold spans and trace events together, so this is the ring drop
  // count: it may over-count lost spans, never under-count them.
  manifest += ",\"spans_dropped\":" + std::to_string(trace.dropped);
  manifest += ",\"config\":" +
              (config_.config_echo_json.empty() ? std::string("{}")
                                                : config_.config_echo_json);
  manifest +=
      ",\"files\":[\"spans.jsonl\",\"events.jsonl\",\"heartbeats.jsonl\","
      "\"metrics.csv\"]}";
  {
    std::ofstream out(dir / "manifest.json");
    out << manifest << '\n';
  }

  // The incident event lands in the ring AFTER the snapshot — the bundle
  // describes the world up to the trigger, and the next bundle (or the
  // end-of-run export) shows this one fired.
  EventLog::instance().emit(EventKind::kIncident, 0, seq, 0, reason);
  log::warn("flight_recorder: incident bundle %llu (%s) -> %s",
            static_cast<unsigned long long>(seq), reason.c_str(),
            dir.string().c_str());
  return {true, seq, dir.string()};
}

std::uint64_t FlightRecorder::bundles_written() const {
  std::lock_guard lock(mutex_);
  return bundles_;
}

std::uint64_t FlightRecorder::triggers_suppressed() const {
  std::lock_guard lock(mutex_);
  return suppressed_;
}

}  // namespace lobster::telemetry
