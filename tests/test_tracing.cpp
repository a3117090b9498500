// Causal tracing & incident capture (DESIGN.md §11): span nesting and
// TLS-context propagation, spans in the Tracer's per-thread rings, message-
// envelope stamping across the bus, the structured event log, the
// response-tag window that keeps 64-bit request ids collision-free, the
// flight recorder's bundle round-trip, and — under TSan — concurrent
// degraded fetches each stitching into a single well-formed span tree with
// no cross-linked parents, and incident bundles dumped while four threads
// keep recording.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/bus.hpp"
#include "comm/fault.hpp"
#include "common/status.hpp"
#include "runtime/distribution_manager.hpp"
#include "telemetry/analysis/json.hpp"
#include "telemetry/analysis/span_analysis.hpp"
#include "telemetry/events.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster {
namespace {

namespace fs = std::filesystem;
using telemetry::EventKind;
using telemetry::EventLog;
using telemetry::Span;
using telemetry::SpanKind;
using telemetry::TraceContext;
using telemetry::TraceEvent;
using telemetry::Tracer;

/// The Tracer's default per-thread ring capacity.
constexpr std::size_t kDefaultRingRecords = std::size_t{1} << 14;

std::vector<TraceEvent> recorded_spans() { return Tracer::instance().snapshot().spans; }

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().reset();
    EventLog::instance().clear();
    Tracer::instance().set_enabled(true);
    EventLog::instance().set_enabled(true);
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    EventLog::instance().set_enabled(false);
    Tracer::instance().set_buffer_capacity(kDefaultRingRecords);
    EventLog::instance().close_stream();
    Tracer::instance().reset();
    EventLog::instance().clear();
  }
};

// ---- span ids and TLS context.

TEST_F(TracingTest, IdsAreNonZeroAndUnique) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto id = Tracer::instance().next_id();
    ASSERT_NE(id, 0U);
    ASSERT_TRUE(seen.insert(id).second) << "duplicate id after " << i << " draws";
  }
}

TEST_F(TracingTest, NestedSpansShareTheTraceAndChainParents) {
  EXPECT_FALSE(telemetry::current_trace_context().valid());
  std::uint64_t trace = 0, root = 0, child = 0;
  {
    Span fetch(SpanKind::kFetch, 0, 42);
    const auto root_ctx = fetch.context();
    ASSERT_TRUE(root_ctx.valid());
    EXPECT_EQ(root_ctx.parent_span_id, 0U);  // fresh trace roots itself
    trace = root_ctx.trace_id;
    root = root_ctx.span_id;
    {
      Span attempt(SpanKind::kAttempt, 0, 42);
      const auto child_ctx = attempt.context();
      EXPECT_EQ(child_ctx.trace_id, trace);
      EXPECT_EQ(child_ctx.parent_span_id, root);
      child = child_ctx.span_id;
      attempt.set_status(StatusCode::kTimeout);
    }
    // Inner span closed: the thread-current context is the root again.
    EXPECT_EQ(telemetry::current_trace_context().span_id, root);
    Span::instant(SpanKind::kDetour, 0, 42, 3);
  }
  EXPECT_FALSE(telemetry::current_trace_context().valid());

  const auto spans = recorded_spans();
  ASSERT_EQ(spans.size(), 3U);  // attempt, detour, fetch (close order)
  EXPECT_EQ(spans[0].kind, SpanKind::kAttempt);
  EXPECT_EQ(spans[0].span_id, child);
  EXPECT_EQ(spans[0].status, StatusCode::kTimeout);
  EXPECT_EQ(spans[1].kind, SpanKind::kDetour);
  EXPECT_EQ(spans[1].parent_span_id, root);
  EXPECT_EQ(spans[1].ts_us, spans[1].end_us());  // instant
  EXPECT_EQ(spans[2].kind, SpanKind::kFetch);
  for (const auto& span : spans) EXPECT_EQ(span.trace_id, trace);

  // Outside any context an instant roots a fresh trace of its own.
  Span::instant(SpanKind::kBreakerFastFail, 0, 42, 1);
  const auto bare = recorded_spans().back();
  EXPECT_EQ(bare.kind, SpanKind::kBreakerFastFail);
  EXPECT_EQ(bare.parent_span_id, 0U);
  EXPECT_NE(bare.trace_id, 0U);
  EXPECT_NE(bare.trace_id, trace);
}

TEST_F(TracingTest, RemoteParentContinuesTheSendersTrace) {
  TraceContext remote;
  {
    Span attempt(SpanKind::kAttempt, 0, 7);
    remote = attempt.context();
  }
  {
    Span serve(SpanKind::kServe, 3, remote, 7);
    const auto ctx = serve.context();
    EXPECT_EQ(ctx.trace_id, remote.trace_id);
    EXPECT_EQ(ctx.parent_span_id, remote.span_id);
  }
  // An invalid propagated context (untraced sender) makes the span inert.
  Span inert(SpanKind::kServe, 3, TraceContext{}, 7);
  EXPECT_FALSE(inert.active());

  const auto spans = recorded_spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[1].rank, 3);
  EXPECT_EQ(spans[1].parent_span_id, spans[0].span_id);
}

TEST_F(TracingTest, DetachedSpansOverlapWithoutTouchingTheThreadContext) {
  // Two envelopes in flight together under one root: both are children of
  // the root, neither becomes the thread-current context, a send inside a
  // ScopedContext carries the span it names, and they may end in any order.
  comm::MessageBus bus(2);
  std::uint64_t root = 0, first_id = 0, second_id = 0;
  {
    Span fetch(SpanKind::kFetch, 0, 1);
    root = fetch.context().span_id;
    Span first = Span::detached(SpanKind::kMultiGet, 0, fetch.context(), 1);
    Span second = Span::detached(SpanKind::kMultiGet, 0, fetch.context(), 2);
    ASSERT_TRUE(first.active());
    EXPECT_EQ(telemetry::current_trace_context().span_id, root);
    first_id = first.context().span_id;
    second_id = second.context().span_id;
    {
      const telemetry::ScopedContext on_wire(second.context());
      EXPECT_EQ(telemetry::current_trace_context().span_id, second_id);
      ASSERT_TRUE(bus.endpoint(0).send_value<int>(1, 9, 5).ok());
    }
    EXPECT_EQ(telemetry::current_trace_context().span_id, root);
    Span moved(std::move(first));  // a moved span stays open, once
    EXPECT_FALSE(first.active());
    moved.end();
    moved.end();
    EXPECT_EQ(telemetry::current_trace_context().span_id, root);
  }
  EXPECT_FALSE(telemetry::current_trace_context().valid());

  const auto stamped = bus.endpoint(1).recv_for(9, 1.0);
  ASSERT_TRUE(stamped.ok());
#if !defined(LOBSTER_TELEMETRY_DISABLED)
  EXPECT_EQ(stamped->span_id, second_id);
#endif
  const auto spans = recorded_spans();
  ASSERT_EQ(spans.size(), 3U);  // first (ended early), second, fetch
  EXPECT_EQ(spans[0].span_id, first_id);
  EXPECT_EQ(spans[1].span_id, second_id);
  EXPECT_EQ(spans[2].span_id, root);
  EXPECT_EQ(spans[0].parent_span_id, root);
  EXPECT_EQ(spans[1].parent_span_id, root);
  EXPECT_EQ(spans[0].arg, 1U);

  // With no parent, a detached span roots its own trace.
  {
    Span lone = Span::detached(SpanKind::kMultiGet, 0, TraceContext{}, 3);
    EXPECT_TRUE(lone.active());
    EXPECT_EQ(lone.context().parent_span_id, 0U);
    EXPECT_FALSE(telemetry::current_trace_context().valid());
  }
}

TEST_F(TracingTest, DisabledLogMakesSpansFree) {
  Tracer::instance().set_enabled(false);
  Span fetch(SpanKind::kFetch, 0, 1);
  EXPECT_FALSE(fetch.active());
  EXPECT_FALSE(telemetry::current_trace_context().valid());
  EXPECT_FALSE(fetch.context().valid());
}

TEST_F(TracingTest, RingDropsOldestBeyondCapacity) {
  // A capacity applies to rings allocated after it is set, so a fresh
  // thread records into the smallest ring (8 records).
  Tracer::instance().set_buffer_capacity(8);
  std::thread([] {
    for (std::uint64_t i = 0; i < 20; ++i) {
      Span span(SpanKind::kFetch, 0, i);
    }
  }).join();
  const auto snapshot = Tracer::instance().snapshot();
  const auto& spans = snapshot.spans;
  ASSERT_EQ(spans.size(), 8U);
  EXPECT_EQ(snapshot.dropped, 12U);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(spans[i].arg, 12 + i);  // oldest first
}

TEST_F(TracingTest, SpansRecordOnlyWhileTheTracerIsEnabled) {
  // One switch: the Tracer's enabled flag arms spans and trace events alike,
  // and reset() clears both.
  { Span fetch(SpanKind::kFetch, 0, 1); }
  Tracer::instance().set_enabled(false);
  { Span fetch(SpanKind::kFetch, 0, 2); }
  Span::instant(SpanKind::kDetour, 0, 3);
  const auto snapshot = Tracer::instance().snapshot();
  ASSERT_EQ(snapshot.spans.size(), 1U);
  EXPECT_EQ(snapshot.spans[0].arg, 1U);
  EXPECT_EQ(snapshot.dropped, 0U);

  Tracer::instance().reset();
  EXPECT_TRUE(recorded_spans().empty());
}

// ---- bus propagation: the envelope carries the sender's context.

TEST_F(TracingTest, MessagesCarryTheSendersSpanContext) {
  comm::MessageBus bus(2);
  std::uint64_t trace = 0, span_id = 0;
  {
    Span attempt(SpanKind::kAttempt, 0, 5);
    trace = attempt.context().trace_id;
    span_id = attempt.context().span_id;
    ASSERT_TRUE(bus.endpoint(0).send_value<int>(1, 9, 5).ok());
  }
  ASSERT_TRUE(bus.endpoint(0).send_value<int>(1, 9, 6).ok());  // outside any span

  const auto traced = bus.endpoint(1).recv_for(9, 1.0);
  ASSERT_TRUE(traced.ok());
#if defined(LOBSTER_TELEMETRY_DISABLED)
  // Kill-switch build: the envelope stamp is compiled out entirely.
  (void)trace;
  (void)span_id;
  EXPECT_EQ(traced->trace_id, 0U);
  EXPECT_EQ(traced->span_id, 0U);
#else
  EXPECT_EQ(traced->trace_id, trace);
  EXPECT_EQ(traced->span_id, span_id);
#endif
  const auto untraced = bus.endpoint(1).recv_for(9, 1.0);
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->trace_id, 0U);
}

// ---- structured event log.

TEST_F(TracingTest, EventsCaptureTheCurrentTraceAndStreamJsonl) {
  const fs::path sink = fs::path(::testing::TempDir()) / "tracing_events.jsonl";
  fs::remove(sink);
  ASSERT_TRUE(EventLog::instance().open_stream(sink.string()));

  std::uint64_t trace = 0;
  {
    Span fetch(SpanKind::kFetch, 0, 11);
    trace = fetch.context().trace_id;
    EventLog::instance().emit(EventKind::kBreakerOpen, 2, 3, 1, "holder 2");
  }
  EventLog::instance().emit(EventKind::kNodeRejoin, 2, 100);
  EventLog::instance().close_stream();

  const auto events = EventLog::instance().snapshot();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].kind, EventKind::kBreakerOpen);
  EXPECT_EQ(events[0].trace_id, trace);  // emitted inside the fetch span
  EXPECT_EQ(events[0].seq, 1U);
  EXPECT_EQ(events[0].detail, "holder 2");
  EXPECT_EQ(events[1].trace_id, 0U);  // emitted outside any span
  EXPECT_EQ(events[1].seq, 2U);

  std::ifstream in(sink);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const auto value = telemetry::analysis::parse_json(line);
    EXPECT_EQ(value.get_string("schema"), "lobster.events.v1");
    EXPECT_FALSE(value.get_string("kind").empty());
  }
  EXPECT_EQ(lines, 2U);
  fs::remove(sink);
}

TEST_F(TracingTest, EventKindNamesMatchTheSchema) {
  using telemetry::event_kind_name;
  EXPECT_STREQ(event_kind_name(EventKind::kJobAdmitted), "job_admitted");
  EXPECT_STREQ(event_kind_name(EventKind::kWatchdogStall), "watchdog_stall");
  EXPECT_STREQ(event_kind_name(EventKind::kServeSendFailure), "serve_send_failure");
  EXPECT_STREQ(event_kind_name(EventKind::kIncident), "incident");
}

// ---- response-tag window (64-bit request ids, wraparound hardening).

TEST(ResponseTag, WindowIsDisjointAndWrapsWithoutCollision) {
  using DM = runtime::DistributionManager;
  // The window never touches the request tag or the reserved any-tag.
  EXPECT_GT(DM::kResponseTagBase, comm::Tag{0x0F00});
  EXPECT_EQ(DM::response_tag(0), DM::kResponseTagBase);
  EXPECT_NE(DM::response_tag(0), comm::kAnyTag);
  EXPECT_NE(DM::response_tag(DM::kResponseTagMask), comm::kAnyTag);

  // Sequential ids map to distinct tags across the whole 2^30 window...
  EXPECT_NE(DM::response_tag(1), DM::response_tag(2));
  EXPECT_EQ(DM::response_tag(DM::kResponseTagMask),
            DM::kResponseTagBase + static_cast<comm::Tag>(DM::kResponseTagMask));
  // ...and wrap back to the base instead of overflowing into foreign tags.
  EXPECT_EQ(DM::response_tag(DM::kResponseTagMask + 1), DM::kResponseTagBase);
  // 64-bit ids far beyond the old 32-bit counter still land in the window.
  const std::uint64_t huge = (1ULL << 40) + 123;
  EXPECT_EQ(DM::response_tag(huge), DM::response_tag(huge & DM::kResponseTagMask));
  // In-flight requests can't collide unless 2^30 ids are open at once.
  EXPECT_NE(DM::response_tag(7), DM::response_tag(7 + DM::kResponseTagMask));
  EXPECT_EQ(DM::response_tag(7), DM::response_tag(7 + DM::kResponseTagMask + 1));
}

// ---- concurrency: many degraded fetches, one well-formed tree each.

TEST_F(TracingTest, ConcurrentDegradedFetchesBuildIsolatedSpanTrees) {
#if defined(LOBSTER_TELEMETRY_DISABLED)
  GTEST_SKIP() << "cross-node propagation needs the envelope stamp, which the "
                  "telemetry kill switch compiles out";
#endif
  constexpr std::uint16_t kThreads = 8;
  constexpr std::uint32_t kFetchesPerThread = 4;

  comm::MessageBus bus(3);
  comm::FaultPlan fault(3);
  bus.set_fault_plan(&fault);
  fault.kill(2);  // first-choice holder is dead: every fetch detours

  runtime::FetchPolicy policy;
  policy.timeout = 0.01;
  policy.max_retries = 1;  // one retry against the dead rank -> backoff span
  policy.backoff_base = 0.001;
  policy.backoff_cap = 0.002;
  policy.breaker_threshold = 1000;  // keep every attempt live (no fast-fail)
  runtime::DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                                      [](SampleId) { return Bytes{128}; });
  server.start();
  runtime::DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint16_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client, t] {
      for (std::uint32_t i = 0; i < kFetchesPerThread; ++i) {
        const SampleId sample = t * 100 + i;
        Span fetch(SpanKind::kFetch, 0, sample);
        fetch.set_arg2(i);
        const auto dead = client.fetch_remote(sample, 2);
        ASSERT_FALSE(dead.ok());
        Span::instant(SpanKind::kDetour, 0, sample, 1);
        const auto good = client.fetch_remote(sample, 1);
        ASSERT_TRUE(good.ok()) << good.status().to_string();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  server.stop();

  const auto snapshot = Tracer::instance().snapshot();
  EXPECT_EQ(snapshot.dropped, 0U);
  const auto& records = snapshot.spans;
  const auto analysis = telemetry::analysis::analyze_spans(records);

  EXPECT_EQ(analysis.fetch_traces, std::size_t{kThreads} * kFetchesPerThread);
  EXPECT_EQ(analysis.degraded_fetches, analysis.fetch_traces);  // all detoured
  EXPECT_EQ(analysis.cross_rank_fetches, analysis.fetch_traces);  // serve@1
  EXPECT_EQ(analysis.malformed_traces, 0U);
  for (const auto& trace : analysis.traces) {
    EXPECT_TRUE(trace.well_formed) << "trace " << trace.trace_id;
  }

  // No cross-linked parents: every child's parent lives in the SAME trace.
  std::map<std::uint64_t, std::uint64_t> trace_of;  // span id -> trace id
  for (const auto& span : records) trace_of[span.span_id] = span.trace_id;
  for (const auto& span : records) {
    if (span.parent_span_id == 0) continue;
    const auto it = trace_of.find(span.parent_span_id);
    ASSERT_NE(it, trace_of.end()) << "dangling parent " << span.parent_span_id;
    EXPECT_EQ(it->second, span.trace_id) << "span " << span.span_id
                                         << " parented across traces";
  }
}

// ---- flight recorder: trigger/dump round trip.

TEST_F(TracingTest, FlightRecorderDumpsAValidBundle) {
  const fs::path out_dir = fs::path(::testing::TempDir()) / "lobster_fr_bundle";
  fs::remove_all(out_dir);

  telemetry::FlightRecorderConfig config;
  config.out_dir = out_dir.string();
  config.cooldown_s = 60.0;  // second trigger below must be suppressed
  config.config_echo_json = "{\"nodes\":3}";
  telemetry::FlightRecorder recorder(config);

  {
    Span fetch(SpanKind::kFetch, 0, 1);
    EventLog::instance().emit(EventKind::kQuarantine, 1, 1, 0, "corrupt_reply");
  }
  recorder.record_heartbeat("{\"schema\":\"lobster.heartbeat.v1\",\"seq\":1}");
  recorder.record_heartbeat("{\"schema\":\"lobster.heartbeat.v1\",\"seq\":2}");

  const auto result = recorder.trigger("retry_storm");
  ASSERT_TRUE(result.dumped);
  EXPECT_EQ(result.seq, 1U);
  EXPECT_EQ(recorder.bundles_written(), 1U);
  for (const char* name :
       {"manifest.json", "spans.jsonl", "events.jsonl", "heartbeats.jsonl", "metrics.csv"}) {
    EXPECT_TRUE(fs::exists(fs::path(result.dir) / name)) << name;
  }

  std::ifstream in(fs::path(result.dir) / "manifest.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto manifest = telemetry::analysis::parse_json(buffer.str());
  EXPECT_EQ(manifest.get_string("schema"), "lobster.incident.v1");
  EXPECT_EQ(manifest.get_string("reason"), "retry_storm");
  EXPECT_EQ(manifest.get_number("spans"), 1.0);
  EXPECT_EQ(manifest.get_number("events"), 1.0);
  EXPECT_EQ(manifest.get_number("heartbeats"), 2.0);
  EXPECT_EQ(manifest.at("config").get_number("nodes"), 3.0);

  // The dump itself is a structured event, linked to the bundle seq.
  const auto events = EventLog::instance().snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, EventKind::kIncident);
  EXPECT_EQ(events.back().a, 1U);

  // Within the cooldown: counted, not dumped.
  EXPECT_FALSE(recorder.trigger("retry_storm").dumped);
  EXPECT_EQ(recorder.triggers_suppressed(), 1U);
  EXPECT_EQ(recorder.bundles_written(), 1U);
  fs::remove_all(out_dir);
}

TEST_F(TracingTest, FlightRecorderWithoutOutDirSuppressesEverything) {
  telemetry::FlightRecorder recorder(telemetry::FlightRecorderConfig{});
  EXPECT_FALSE(recorder.trigger("anything").dumped);
  EXPECT_EQ(recorder.bundles_written(), 0U);
  EXPECT_EQ(recorder.triggers_suppressed(), 1U);
}

TEST_F(TracingTest, MonitorFeedsHeartbeatsIntoTheRecorder) {
  const fs::path out_dir = fs::path(::testing::TempDir()) / "lobster_fr_monitor";
  fs::remove_all(out_dir);
  telemetry::FlightRecorderConfig recorder_config;
  recorder_config.out_dir = out_dir.string();
  recorder_config.cooldown_s = 0.0;
  telemetry::FlightRecorder recorder(recorder_config);

  telemetry::MonitorConfig monitor_config;
  monitor_config.log_text = false;
  monitor_config.recorder = &recorder;
  telemetry::Monitor monitor(monitor_config);
  monitor.sample_once();
  monitor.sample_once();

  const auto result = recorder.trigger("manual");
  ASSERT_TRUE(result.dumped);
  std::ifstream in(fs::path(result.dir) / "heartbeats.jsonl");
  std::string line;
  std::size_t heartbeats = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++heartbeats;
    const auto beat = telemetry::analysis::parse_json(line);
    EXPECT_EQ(beat.get_string("schema"), "lobster.heartbeat.v1");
    EXPECT_TRUE(beat.has("flags"));
  }
  EXPECT_EQ(heartbeats, 2U);
  fs::remove_all(out_dir);
}

// ---- live snapshots: bundles dumped while producers keep recording.

TEST_F(TracingTest, IncidentBundlesSnapshotSpanRingsWhileThreadsRecord) {
  // Four threads record spans and trace events into 64-record rings that
  // wrap many times over while the flight recorder dumps bundles. Every span
  // in a bundle must be whole: arg2 pairs with arg and rank, so a torn copy
  // shows. TSan checks the copy itself.
  constexpr std::uint16_t kProducers = 4;
  constexpr std::size_t kBundles = 4;
  constexpr std::size_t kRingRecords = 64;
  const fs::path out_dir = fs::path(::testing::TempDir()) / "lobster_fr_live";
  fs::remove_all(out_dir);
  telemetry::FlightRecorderConfig config;
  config.out_dir = out_dir.string();
  config.cooldown_s = 0.0;
  config.max_bundles = kBundles;
  telemetry::FlightRecorder recorder(config);
  const auto pair_of = [](std::uint64_t arg, std::uint16_t rank) { return arg * 4 + rank; };

  auto& tracer = Tracer::instance();
  tracer.set_buffer_capacity(kRingRecords);
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (std::uint16_t rank = 0; rank < kProducers; ++rank) {
    producers.emplace_back([&, rank] {
      const std::uint32_t name = tracer.intern("live_snapshot");
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        Span fetch(SpanKind::kFetch, rank, i);
        fetch.set_arg2(pair_of(i, rank));
        Span::instant(SpanKind::kDetour, rank, i, pair_of(i, rank));
        tracer.instant_wall(telemetry::Category::kTest, name, i);
      }
    });
  }
  // Dump once every producer's ring has wrapped at least once.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (tracer.dropped_events() < kProducers * kRingRecords &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<telemetry::IncidentResult> results;
  for (std::size_t b = 0; b < kBundles; ++b) results.push_back(recorder.trigger("live"));
  stop.store(true, std::memory_order_relaxed);
  for (auto& producer : producers) producer.join();

  for (const auto& result : results) {
    ASSERT_TRUE(result.dumped);
    const auto spans =
        telemetry::analysis::load_spans_file((fs::path(result.dir) / "spans.jsonl").string());
    std::ifstream in(fs::path(result.dir) / "manifest.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto manifest = telemetry::analysis::parse_json(buffer.str());
    EXPECT_EQ(manifest.get_number("spans"), static_cast<double>(spans.size()));
    EXPECT_GT(manifest.get_number("spans_dropped"), 0.0);
    EXPECT_FALSE(spans.empty());
    EXPECT_LE(spans.size(), kProducers * kRingRecords);
    for (const auto& span : spans) {
      EXPECT_NE(span.trace_id, 0U);
      EXPECT_NE(span.span_id, 0U);
      EXPECT_LE(span.ts_us, span.end_us());
      ASSERT_LT(span.rank, kProducers);
      EXPECT_EQ(span.arg2, pair_of(span.arg, span.rank)) << "torn span " << span.span_id;
      if (span.kind == SpanKind::kFetch) {
        EXPECT_EQ(span.parent_span_id, 0U);
      } else {
        EXPECT_EQ(span.kind, SpanKind::kDetour);
        EXPECT_NE(span.parent_span_id, 0U);
      }
    }
  }
  fs::remove_all(out_dir);
}

}  // namespace
}  // namespace lobster
