// telemetry::Monitor: anomaly flags from registry deltas, JSONL heartbeat
// sink, background-thread lifecycle, and trace-ring overflow detection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/analysis/json.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::telemetry {
namespace {

// Small rings so the overflow test can fill one cheaply. Must run before
// any buffer is created in this process.
const bool kCapacitySet = [] {
  Tracer::instance().set_buffer_capacity(1u << 10);
  return true;
}();

void reset_all() {
  Tracer::instance().set_enabled(false);
  Tracer::instance().reset();
  MetricRegistry::instance().reset();
}

MonitorConfig quiet_config() {
  MonitorConfig config;
  config.log_text = false;
  return config;
}

TEST(Monitor, FirstSampleTreatsAbsolutesAsDeltas) {
  reset_all();
  auto& registry = MetricRegistry::instance();
  registry.counter("pipeline.iterations").add(4);
  registry.counter("pipeline.bytes_consumed").add(1000);
  registry.counter("prefetch.bytes").add(500);
  registry.counter("cache.hits").add(3);
  registry.counter("cache.misses").add(1);

  Monitor monitor(quiet_config());
  const MonitorSample sample = monitor.sample_once();
  EXPECT_EQ(sample.seq, 1u);
  EXPECT_EQ(sample.iterations, 4u);
  EXPECT_EQ(sample.d_iterations, 4u);
  EXPECT_EQ(sample.d_bytes_consumed, 1000u);
  EXPECT_EQ(sample.d_prefetch_bytes, 500u);
  EXPECT_DOUBLE_EQ(sample.cache_hit_ratio(), 0.75);
  // Consumption outpaced prefetch; no gap, no drops.
  EXPECT_FALSE(sample.any_flag());

  // Nothing moved: second sample has zero deltas and still no flags.
  const MonitorSample idle = monitor.sample_once();
  EXPECT_EQ(idle.seq, 2u);
  EXPECT_EQ(idle.iterations, 4u);
  EXPECT_EQ(idle.d_iterations, 0u);
  EXPECT_EQ(idle.d_bytes_consumed, 0u);
  EXPECT_FALSE(idle.any_flag());
  EXPECT_EQ(monitor.samples_emitted(), 2u);
}

TEST(Monitor, StragglerFlagFollowsGapGauge) {
  reset_all();
  auto& registry = MetricRegistry::instance();
  MonitorConfig config = quiet_config();
  config.straggler_gap_threshold = 0.10;
  Monitor monitor(config);

  registry.gauge("pipeline.gap_frac").set(0.05);
  EXPECT_FALSE(monitor.sample_once().straggler_gap);
  registry.gauge("pipeline.gap_frac").set(0.5);
  const MonitorSample flagged = monitor.sample_once();
  EXPECT_TRUE(flagged.straggler_gap);
  EXPECT_DOUBLE_EQ(flagged.gap_frac, 0.5);
  registry.gauge("pipeline.gap_frac").set(0.02);
  EXPECT_FALSE(monitor.sample_once().straggler_gap);
}

TEST(Monitor, PrefetchOutrunComparesIntervalRates) {
  reset_all();
  auto& registry = MetricRegistry::instance();
  Monitor monitor(quiet_config());
  monitor.sample_once();  // baseline

  // Prefetcher fetched 10x what training consumed over the interval (§4.4).
  registry.counter("prefetch.bytes").add(1000);
  registry.counter("pipeline.bytes_consumed").add(100);
  EXPECT_TRUE(monitor.sample_once().prefetch_outrun);

  // Next interval consumption catches up: flag clears.
  registry.counter("pipeline.bytes_consumed").add(900);
  EXPECT_FALSE(monitor.sample_once().prefetch_outrun);
}

#if !defined(LOBSTER_TELEMETRY_DISABLED)
TEST(Monitor, OverflowFlagTracksDroppedTraceEvents) {
  // Trace events and causal spans share one ring per thread, so either
  // alone overflowing it raises the flag.
  const std::vector<std::pair<const char*, void (*)()>> fillers = {
      {"trace events", [] { LOBSTER_TRACE_INSTANT(kTest, "overflow_filler", 0); }},
      {"causal spans", [] { Span::instant(SpanKind::kDetour, 0); }},
  };
  for (const auto& [what, fill] : fillers) {
    SCOPED_TRACE(what);
    reset_all();
    Tracer::instance().set_enabled(true);
    Monitor monitor(quiet_config());
    EXPECT_FALSE(monitor.sample_once().trace_ring_overflow);

    // Blow past the 1<<10 ring sized at process start.
    for (int i = 0; i < (1 << 11); ++i) fill();
    const MonitorSample sample = monitor.sample_once();
    EXPECT_GT(sample.trace_dropped, 0u);
    EXPECT_TRUE(sample.trace_ring_overflow);
    // The monitor mirrors the drop count into the registry for exporters.
    EXPECT_GT(MetricRegistry::instance().gauge("telemetry.dropped_events").value(), 0.0);
    Tracer::instance().set_enabled(false);
  }
}
#endif  // !LOBSTER_TELEMETRY_DISABLED

TEST(Monitor, JobStarvationFlagTracksClusterCounter) {
  reset_all();
  auto& registry = MetricRegistry::instance();
  Monitor monitor(quiet_config());

  registry.gauge("cluster.jobs_running").set(3.0);
  registry.gauge("cluster.jobs_queued").set(2.0);
  const MonitorSample healthy = monitor.sample_once();
  EXPECT_FALSE(healthy.job_starved);
  EXPECT_DOUBLE_EQ(healthy.jobs_running, 3.0);
  EXPECT_DOUBLE_EQ(healthy.jobs_queued, 2.0);

  // The fairness tracker declares a starvation: the flag raises once.
  registry.counter("cluster.job_starvations").add(1);
  const MonitorSample starving = monitor.sample_once();
  EXPECT_TRUE(starving.job_starved);
  EXPECT_EQ(starving.d_job_starvations, 1u);
  EXPECT_EQ(starving.job_starvations, 1u);
  EXPECT_TRUE(starving.any_flag());

  // Delta-based like peer_down: it clears on the next healthy interval.
  EXPECT_FALSE(monitor.sample_once().job_starved);
}

TEST(Monitor, JsonlSinkWritesParseableHeartbeats) {
  reset_all();
  auto& registry = MetricRegistry::instance();
  registry.counter("pipeline.iterations").add(2);
  registry.gauge("pipeline.gap_frac").set(0.42);
  registry.gauge("cluster.jobs_running").set(4.0);

  const std::string path =
      (std::filesystem::temp_directory_path() / "lobster_test_monitor.jsonl").string();
  {
    MonitorConfig config = quiet_config();
    config.jsonl_path = path;
    Monitor monitor(config);
    monitor.sample_once();
    registry.counter("pipeline.iterations").add(3);
    monitor.sample_once();
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);

  const auto first = analysis::parse_json(lines[0]);
  ASSERT_TRUE(first.is_object());
  EXPECT_EQ(first.get_string("schema"), "lobster.heartbeat.v1");
  EXPECT_DOUBLE_EQ(first.get_number("seq"), 1.0);
  EXPECT_DOUBLE_EQ(first.get_number("iterations"), 2.0);
  EXPECT_DOUBLE_EQ(first.get_number("gap_frac"), 0.42);
  EXPECT_DOUBLE_EQ(first.get_number("jobs_running"), 4.0);
  EXPECT_DOUBLE_EQ(first.get_number("job_starvations"), 0.0);
  ASSERT_TRUE(first.has("flags"));
  EXPECT_TRUE(first.at("flags").get_bool("straggler_gap"));
  EXPECT_FALSE(first.at("flags").get_bool("job_starved"));

  const auto second = analysis::parse_json(lines[1]);
  EXPECT_DOUBLE_EQ(second.get_number("seq"), 2.0);
  EXPECT_DOUBLE_EQ(second.get_number("iterations"), 5.0);
  EXPECT_DOUBLE_EQ(second.get_number("d_iterations"), 3.0);
  std::filesystem::remove(path);
}

TEST(Monitor, BackgroundThreadSamplesAndStopsCleanly) {
  reset_all();
  MonitorConfig config = quiet_config();
  config.interval = std::chrono::milliseconds(5);
  Monitor monitor(config);
  EXPECT_FALSE(monitor.running());

  monitor.start();
  EXPECT_TRUE(monitor.running());
  monitor.start();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  monitor.stop();
  EXPECT_FALSE(monitor.running());
  // stop() emits a final sample even if the interval never elapsed.
  const std::uint64_t emitted = monitor.samples_emitted();
  EXPECT_GE(emitted, 1u);
  monitor.stop();  // idempotent
  EXPECT_EQ(monitor.samples_emitted(), emitted);
}

TEST(Monitor, DestructorStopsRunningThread) {
  reset_all();
  MonitorConfig config = quiet_config();
  config.interval = std::chrono::milliseconds(5);
  auto monitor = std::make_unique<Monitor>(config);
  monitor->start();
  monitor.reset();  // must join without hanging or crashing
  SUCCEED();
}

}  // namespace
}  // namespace lobster::telemetry
