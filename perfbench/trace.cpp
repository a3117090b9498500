// Self-time aggregation over a Tracer snapshot.
#include <algorithm>
#include <map>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

using lobster::telemetry::Domain;
using lobster::telemetry::Phase;
using lobster::telemetry::TraceEvent;

TraceSummary summarize_trace(const lobster::telemetry::TraceSnapshot& snapshot) {
  TraceSummary summary;
  summary.emitted = snapshot.emitted;
  summary.dropped = snapshot.dropped;

  // Wall spans per thread track; on one thread, spans nest strictly.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_track;
  for (const TraceEvent& event : snapshot.events) {
    if (event.phase == Phase::kComplete && event.domain == Domain::kWall) {
      by_track[event.track].push_back(&event);
    }
  }
  for (auto& [track, spans] : by_track) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(spans.begin(), spans.end(), [](const TraceEvent* a, const TraceEvent* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<double> child_us(spans.size(), 0.0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent& span = *spans[i];
      while (!open.empty()) {
        const TraceEvent& parent = *spans[open.back()];
        if (span.ts_us + span.dur_us <= parent.ts_us + parent.dur_us) break;
        open.pop_back();
      }
      if (!open.empty()) child_us[open.back()] += static_cast<double>(span.dur_us);
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent& span = *spans[i];
      const std::string& name = snapshot.names.at(span.name_id);
      const double dur = static_cast<double>(span.dur_us);
      summary.total_ms[name] += dur * 1e-3;
      summary.self_ms[name] += std::max(0.0, dur - child_us[i]) * 1e-3;
    }
  }
  return summary;
}

}  // namespace perfbench
