// Anomaly-triggered flight recorder (DESIGN.md §11).
//
// Post-hoc analysis has a blind spot: by the time a soak finishes, the
// interesting window — the 400ms where a node died, a breaker opened and
// four fetches detoured — has been overwritten in the bounded rings or
// diluted across a million healthy samples. The flight recorder closes it
// the way an aircraft FDR does: it continuously observes the bounded
// recent-history rings (the Tracer's per-thread rings, the EventLog, plus
// its own heartbeat ring fed by the Monitor) and, when an anomaly fires,
// freezes them into a self-contained **incident bundle** on disk. It
// snapshots while the drain, prefetch and serve threads keep recording,
// which the Tracer's per-ring locks make race-free:
//
//   <out_dir>/incident-NNN/
//     manifest.json    lobster.incident.v1: reason, trigger time, counts,
//                      config echo, file list; `spans_dropped` is the
//                      Tracer's ring drop count (events and spans share
//                      the rings), an upper bound on spans lost
//     spans.jsonl      lobster.spans.v1 snapshot (causal fetch trees)
//     events.jsonl     lobster.events.v1 snapshot (state transitions)
//     heartbeats.jsonl lobster.heartbeat.v1 (last-N monitor samples)
//     metrics.csv      full metric registry dump at trigger time
//
// Triggers: any Monitor anomaly flag (wired via MonitorConfig.recorder),
// the iteration watchdog's stall callback, or an explicit trigger() (CI
// forces one bundle per smoke run so the capture path itself is tested).
// A cooldown plus a bundle cap keep a flapping anomaly from filling the
// disk; suppressed triggers are still counted.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace lobster::telemetry {

struct FlightRecorderConfig {
  std::string out_dir;            ///< bundles land in <out_dir>/incident-NNN
  std::size_t max_heartbeats = 64;
  std::size_t max_bundles = 8;    ///< further triggers are counted, not dumped
  double cooldown_s = 1.0;        ///< min spacing between bundles
  /// Echoed verbatim into every manifest ("config" object, pre-serialized
  /// JSON). Lets a bundle carry the exact run configuration that produced
  /// it without the recorder knowing any config schema.
  std::string config_echo_json = "{}";
};

/// Outcome of one trigger() call.
struct IncidentResult {
  bool dumped = false;       ///< a bundle was written
  std::uint64_t seq = 0;     ///< bundle number (when dumped)
  std::string dir;           ///< bundle directory (when dumped)
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Feeds one monitor heartbeat JSONL line into the bounded ring.
  void record_heartbeat(std::string line);

  /// Freezes the rings into a bundle. `reason` names the anomaly (e.g.
  /// "retry_storm", "watchdog_stall", "forced"). Returns dumped=false when
  /// suppressed by cooldown / bundle cap or when the dump failed.
  IncidentResult trigger(const std::string& reason);

  std::uint64_t bundles_written() const;
  std::uint64_t triggers_suppressed() const;
  const FlightRecorderConfig& config() const noexcept { return config_; }

 private:
  FlightRecorderConfig config_;
  mutable std::mutex mutex_;
  std::deque<std::string> heartbeats_;
  std::uint64_t bundles_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t last_dump_us_ = 0;  ///< Tracer wall epoch; 0 = never
};

}  // namespace lobster::telemetry
