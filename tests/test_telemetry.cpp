// Telemetry subsystem: ring-buffer wraparound and drop accounting, live
// copies of locked rings, ring reuse across thread exits, wall vs virtual
// time domains, the Chrome trace exporter (parsed back by a minimal JSON
// reader), the metric registry, and the runtime kill switch.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough to verify the exporter's output is real
// JSON with the structure Chrome/Perfetto expect.
// ---------------------------------------------------------------------------
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json& at(const std::string& key) const { return object.at(key); }
  bool has(const std::string& key) const { return object.contains(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    const Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing garbage");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json value;
    value.type = Json::Type::kObject;
    if (peek() == '}') { ++pos_; return value; }
    for (;;) {
      Json key = parse_string();
      expect(':');
      value.object.emplace(std::move(key.string), parse_value());
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return value;
    }
  }

  Json parse_array() {
    expect('[');
    Json value;
    value.type = Json::Type::kArray;
    if (peek() == ']') { ++pos_; return value; }
    for (;;) {
      value.array.push_back(parse_value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return value;
    }
  }

  Json parse_string() {
    expect('"');
    Json value;
    value.type = Json::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            pos_ += 4;  // keep the replacement char; tests don't need codepoints
            c = '?';
            break;
          default: c = esc; break;
        }
      }
      value.string.push_back(c);
    }
    expect('"');
    return value;
  }

  Json parse_bool() {
    Json value;
    value.type = Json::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) { value.boolean = true; pos_ += 4; return value; }
    if (text_.compare(pos_, 5, "false") == 0) { pos_ += 5; return value; }
    throw std::runtime_error("bad literal");
  }

  Json parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) throw std::runtime_error("bad literal");
    pos_ += 4;
    return {};
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    Json value;
    value.type = Json::Type::kNumber;
    value.number = std::stod(text_.substr(start, pos_ - start));
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Fresh tracer state per test: no recorded events, runtime switch on.
void reset_and_enable() {
  Tracer::instance().reset();
  MetricRegistry::instance().reset();
  Tracer::instance().set_enabled(true);
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------
TEST(TraceBuffer, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(TraceBuffer(5).capacity(), 8U);
  EXPECT_EQ(TraceBuffer(0).capacity(), 8U);
  EXPECT_EQ(TraceBuffer(16).capacity(), 16U);
  EXPECT_EQ(TraceBuffer(17).capacity(), 32U);
}

TEST(TraceBuffer, SnapshotBeforeWrapReturnsAllInOrder) {
  TraceBuffer buffer(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    TraceEvent event;
    event.ts_us = i;
    buffer.emit(event);
  }
  std::vector<TraceEvent> out;
  buffer.snapshot(out);
  ASSERT_EQ(out.size(), 3U);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(out[i].ts_us, i);
  EXPECT_EQ(buffer.dropped(), 0U);
  EXPECT_EQ(buffer.emitted(), 3U);
}

TEST(TraceBuffer, WraparoundKeepsNewestAndCountsDrops) {
  TraceBuffer buffer(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    TraceEvent event;
    event.ts_us = i;
    buffer.emit(event);
  }
  std::vector<TraceEvent> out;
  buffer.snapshot(out);
  ASSERT_EQ(out.size(), 8U);
  // Oldest-first among the survivors: 12, 13, ..., 19.
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].ts_us, 12 + i);
  EXPECT_EQ(buffer.dropped(), 12U);
  EXPECT_EQ(buffer.emitted(), 20U);
}

TEST(TraceBuffer, ClearRestartsAccounting) {
  TraceBuffer buffer(8);
  for (int i = 0; i < 20; ++i) buffer.emit(TraceEvent{});
  buffer.clear();
  EXPECT_EQ(buffer.dropped(), 0U);
  EXPECT_EQ(buffer.emitted(), 0U);
  std::vector<TraceEvent> out;
  buffer.snapshot(out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Tracer domains
// ---------------------------------------------------------------------------
#if !defined(LOBSTER_TELEMETRY_DISABLED)
// The macro layer and the instrumentation compiled into sim/runtime only
// exist when telemetry is compiled in.
TEST(Tracer, RuntimeDisabledMacrosRecordNothing) {
  Tracer::instance().reset();
  Tracer::instance().set_enabled(false);
  LOBSTER_TRACE_INSTANT(kTest, "disabled_instant", 1);
  LOBSTER_TRACE_COUNTER(kTest, "disabled_counter", 2.0);
  { LOBSTER_TRACE_SPAN(kTest, "disabled_span"); }
  EXPECT_TRUE(Tracer::instance().snapshot().events.empty());
}
#endif  // LOBSTER_TELEMETRY_DISABLED

TEST(Tracer, WallAndVirtualEventsCarryTheirDomains) {
  reset_and_enable();
  auto& tracer = Tracer::instance();

  const auto wall_name = tracer.intern("wall_event");
  tracer.instant_wall(Category::kTest, wall_name, 7);

  const auto track = tracer.new_track("test/virtual-track");
  const auto virtual_name = tracer.intern("virtual_event");
  tracer.instant_at(Category::kTest, virtual_name, track, 1.5, 9);
  tracer.complete_at(Category::kTest, virtual_name, track, 2.0, 3.25);

  const auto snapshot = tracer.snapshot();
  ASSERT_EQ(snapshot.events.size(), 3U);

  int wall_seen = 0;
  int virtual_seen = 0;
  for (const auto& event : snapshot.events) {
    if (event.domain == Domain::kWall) {
      ++wall_seen;
      EXPECT_EQ(event.name_id, wall_name);
      EXPECT_EQ(event.arg, 7U);
    } else {
      ++virtual_seen;
      EXPECT_EQ(event.track, track);
      if (event.phase == Phase::kInstant) {
        EXPECT_EQ(event.ts_us, 1'500'000U);  // 1.5 simulated seconds
      } else {
        EXPECT_EQ(event.phase, Phase::kComplete);
        EXPECT_EQ(event.ts_us, 2'000'000U);
        EXPECT_EQ(event.dur_us, 1'250'000U);
      }
    }
  }
  EXPECT_EQ(wall_seen, 1);
  EXPECT_EQ(virtual_seen, 2);
  EXPECT_EQ(snapshot.tracks.at(track), "test/virtual-track");
}

TEST(Tracer, ScopedSpanRecordsWallComplete) {
  reset_and_enable();
  {
    const ScopedSpan span(Category::kTest, Tracer::instance().intern("span_under_test"), 42);
  }
  const auto snapshot = Tracer::instance().snapshot();
  ASSERT_EQ(snapshot.events.size(), 1U);
  const auto& event = snapshot.events.front();
  EXPECT_EQ(event.phase, Phase::kComplete);
  EXPECT_EQ(event.domain, Domain::kWall);
  EXPECT_EQ(event.arg, 42U);
  EXPECT_EQ(snapshot.names.at(event.name_id), "span_under_test");
}

TEST(Tracer, VirtualTimeScopePinsAutoDomainEvents) {
  reset_and_enable();
  auto& tracer = Tracer::instance();
  const auto track = tracer.new_track("test/scope-track");

  tracer.instant_auto(Category::kTest, tracer.intern("outside_scope"));
  {
    VirtualTimeScope scope(track, 4.0);
    tracer.instant_auto(Category::kTest, tracer.intern("inside_scope"));
    scope.set_now(5.0);
    tracer.instant_auto(Category::kTest, tracer.intern("after_set_now"));
  }
  tracer.instant_auto(Category::kTest, tracer.intern("outside_again"));

  const auto snapshot = tracer.snapshot();
  ASSERT_EQ(snapshot.events.size(), 4U);
  std::map<std::string, const TraceEvent*> by_name;
  for (const auto& event : snapshot.events) {
    by_name[snapshot.names.at(event.name_id)] = &event;
  }
  EXPECT_EQ(by_name.at("outside_scope")->domain, Domain::kWall);
  EXPECT_EQ(by_name.at("outside_again")->domain, Domain::kWall);
  EXPECT_EQ(by_name.at("inside_scope")->domain, Domain::kVirtual);
  EXPECT_EQ(by_name.at("inside_scope")->track, track);
  EXPECT_EQ(by_name.at("inside_scope")->ts_us, 4'000'000U);
  EXPECT_EQ(by_name.at("after_set_now")->ts_us, 5'000'000U);
}

TEST(Tracer, MultithreadedEmitMergesAllThreads) {
  reset_and_enable();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        auto& tracer = Tracer::instance();
        const auto name = tracer.intern("mt_emit");
        for (int i = 0; i < kPerThread; ++i) {
          tracer.instant_wall(Category::kTest, name, static_cast<std::uint64_t>(i));
        }
      });
    }
  }
  const auto snapshot = Tracer::instance().snapshot();
  EXPECT_EQ(snapshot.events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(snapshot.dropped, 0U);
}

TEST(Tracer, SnapshotCopiesRingsWhileThreadsRecord) {
  // Two producers wrap 64-record rings many times over while snapshots copy
  // them. Every copied event must be whole (a counter carries no arg, an
  // instant no value), and TSan checks the copy itself: each ring is read
  // under the lock its emits take.
  reset_and_enable();
  auto& tracer = Tracer::instance();
  tracer.set_buffer_capacity(64);
  const auto name = tracer.intern("live_copy");
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        tracer.counter_wall(Category::kTest, name, static_cast<double>(i + 1));
        tracer.instant_wall(Category::kTest, name, i);
      }
    });
  }
  std::size_t copied = 0;
  for (int round = 0; round < 50 || copied == 0; ++round) {
    const auto snapshot = tracer.snapshot();
    for (const auto& event : snapshot.events) {
      if (event.name_id != name) continue;
      ++copied;
      if (event.phase == Phase::kCounter) {
        EXPECT_EQ(event.arg, 0U);
      } else {
        EXPECT_EQ(event.phase, Phase::kInstant);
        EXPECT_EQ(event.value, 0.0);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& producer : producers) producer.join();
  tracer.set_buffer_capacity(std::size_t{1} << 14);
  EXPECT_GT(copied, 0U);
  EXPECT_GT(tracer.dropped_events(), 0U);
}

TEST(Tracer, ExitedThreadsHandTheirRingToTheNextThread) {
  // Threads started and joined in turn: each adopts the ring the previous
  // one returned at exit, records kept, so the ring count stays flat.
  reset_and_enable();
  auto& tracer = Tracer::instance();
  const auto name = tracer.intern("ring_reuse");
  const std::uint32_t buffers_before = tracer.snapshot().buffers;
  constexpr std::uint64_t kThreads = 256;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    std::thread([&tracer, name, t] {
      tracer.instant_wall(Category::kTest, name, t);
      Span::instant(SpanKind::kDetour, 0, t);
    }).join();
  }
  const auto snapshot = tracer.snapshot();
  EXPECT_LE(snapshot.buffers, buffers_before + 1);
  EXPECT_EQ(snapshot.dropped, 0U);
  std::set<std::uint64_t> event_args, span_args;
  for (const auto& event : snapshot.events) event_args.insert(event.arg);
  for (const auto& span : snapshot.spans) span_args.insert(span.arg);
  EXPECT_EQ(snapshot.events.size(), kThreads);
  EXPECT_EQ(snapshot.spans.size(), kThreads);
  EXPECT_EQ(event_args.size(), kThreads);
  EXPECT_EQ(span_args.size(), kThreads);
}

/// Records a span from a thread-local destructor that runs after the
/// Tracer's exit hook returned the thread's ring.
struct SpanAtThreadExit {
  ~SpanAtThreadExit() { Span::instant(SpanKind::kDetour, 0, 2); }
};

TEST(Tracer, ARecordAfterTheExitHookNeverSharesARing) {
  reset_and_enable();
  // A capacity no other test uses, so only this test's rings are free.
  Tracer::instance().set_buffer_capacity(128);
  std::thread([] {
    // Built before the thread's first record, so destroyed after the hook.
    static thread_local SpanAtThreadExit late;
    (void)late;
    Span::instant(SpanKind::kDetour, 0, 1);
  }).join();
  std::thread([] { Span::instant(SpanKind::kDetour, 0, 3); }).join();
  Tracer::instance().set_buffer_capacity(std::size_t{1} << 14);
  const auto snapshot = Tracer::instance().snapshot();
  ASSERT_EQ(snapshot.spans.size(), 3U);
  std::map<std::uint64_t, std::uint32_t> track_of;  // span arg -> track
  for (const auto& span : snapshot.spans) track_of[span.arg] = span.track;
  // The late record takes the thread's returned ring back for good, so the
  // next thread records on a ring of its own.
  EXPECT_EQ(track_of.at(2), track_of.at(1));
  EXPECT_NE(track_of.at(3), track_of.at(2));
}

// ---------------------------------------------------------------------------
// Sim integration: engine dispatch lands on a virtual track, and the
// engine stays usable through a const reference (idle() is const noexcept).
// ---------------------------------------------------------------------------
TEST(SimIntegration, EngineIdleIsConstNoexcept) {
  sim::Engine engine;
  const sim::Engine& const_engine = engine;
  static_assert(noexcept(const_engine.idle()));
  EXPECT_TRUE(const_engine.idle());
  engine.schedule_at(1.0, [] {});
  EXPECT_FALSE(const_engine.idle());
  engine.run();
  EXPECT_TRUE(const_engine.idle());
}

#if !defined(LOBSTER_TELEMETRY_DISABLED)
TEST(SimIntegration, EngineDispatchEmitsVirtualInstants) {
  reset_and_enable();
  sim::Engine engine;

  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.5, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(engine.idle());

  const auto snapshot = Tracer::instance().snapshot();
  std::vector<std::uint64_t> dispatch_ts;
  for (const auto& event : snapshot.events) {
    if (event.category == Category::kSim && snapshot.names.at(event.name_id) == "dispatch") {
      EXPECT_EQ(event.domain, Domain::kVirtual);
      dispatch_ts.push_back(event.ts_us);
    }
  }
  ASSERT_EQ(dispatch_ts.size(), 2U);
  EXPECT_EQ(dispatch_ts[0], 1'000'000U);
  EXPECT_EQ(dispatch_ts[1], 2'500'000U);
}
#endif  // LOBSTER_TELEMETRY_DISABLED

// ---------------------------------------------------------------------------
// Chrome trace exporter
// ---------------------------------------------------------------------------
TEST(ChromeTrace, ExportIsValidJsonWithBothDomains) {
  reset_and_enable();
  auto& tracer = Tracer::instance();

  {
    const ScopedSpan span(Category::kTest, tracer.intern("wall \"quoted\"\nspan"), 3);
  }
  tracer.counter_wall(Category::kTest, tracer.intern("wall_counter"), 12.5);
  const auto track = tracer.new_track("test/export-track");
  tracer.instant_at(Category::kSim, tracer.intern("virtual_instant"), track, 0.25);

  const auto json_text = chrome_trace_json(tracer.snapshot());
  Json root;
  ASSERT_NO_THROW(root = JsonParser(json_text).parse()) << json_text;

  ASSERT_EQ(root.type, Json::Type::kObject);
  EXPECT_EQ(root.at("displayTimeUnit").string, "ms");
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& events = root.at("traceEvents").array;

  bool wall_span = false;
  bool wall_counter = false;
  bool virtual_instant = false;
  bool wall_process_meta = false;
  bool virtual_process_meta = false;
  for (const auto& event : events) {
    const auto& ph = event.at("ph").string;
    if (ph == "M") {
      if (event.at("name").string == "process_name") {
        const auto pid = static_cast<int>(event.at("pid").number);
        wall_process_meta = wall_process_meta || pid == kWallPid;
        virtual_process_meta = virtual_process_meta || pid == kVirtualPid;
      }
      continue;
    }
    ASSERT_TRUE(event.has("ts"));
    ASSERT_TRUE(event.has("pid"));
    if (ph == "X" && event.at("name").string == "wall \"quoted\"\nspan") {
      wall_span = true;
      EXPECT_EQ(static_cast<int>(event.at("pid").number), kWallPid);
      EXPECT_EQ(event.at("cat").string, "test");
      EXPECT_TRUE(event.has("dur"));
    }
    if (ph == "C" && event.at("name").string == "wall_counter") {
      wall_counter = true;
      EXPECT_EQ(event.at("args").at("value").number, 12.5);
    }
    if (ph == "i" && event.at("name").string == "virtual_instant") {
      virtual_instant = true;
      EXPECT_EQ(static_cast<int>(event.at("pid").number), kVirtualPid);
      EXPECT_EQ(event.at("ts").number, 250'000.0);
      EXPECT_EQ(event.at("cat").string, "sim");
    }
  }
  EXPECT_TRUE(wall_span);
  EXPECT_TRUE(wall_counter);
  EXPECT_TRUE(virtual_instant);
  EXPECT_TRUE(wall_process_meta);
  EXPECT_TRUE(virtual_process_meta);
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------
TEST(MetricRegistry, CountersGaugesHistogramsRoundTrip) {
  reset_and_enable();
  auto& registry = MetricRegistry::instance();

  registry.counter("test.reg.counter").add(3);
  registry.counter("test.reg.counter").add(2);
  registry.gauge("test.reg.gauge").set(7.5);
  auto& histogram = registry.histogram("test.reg.histogram", 0.0, 10.0, 5);
  histogram.observe(1.0);
  histogram.observe(9.0);

  EXPECT_EQ(registry.counter("test.reg.counter").value(), 5U);
  EXPECT_EQ(registry.gauge("test.reg.gauge").value(), 7.5);
  EXPECT_EQ(histogram.running().count(), 2U);
  EXPECT_EQ(histogram.running().mean(), 5.0);

  const auto csv = registry.render_csv();
  EXPECT_NE(csv.find("counter,test.reg.counter,5"), std::string::npos) << csv;
  EXPECT_NE(csv.find("gauge,test.reg.gauge"), std::string::npos) << csv;
  EXPECT_NE(csv.find("histogram,test.reg.histogram"), std::string::npos) << csv;

  // reset() zeroes values but keeps entries — cached references stay valid.
  registry.reset();
  EXPECT_EQ(registry.counter("test.reg.counter").value(), 0U);
  EXPECT_EQ(histogram.running().count(), 0U);
  registry.counter("test.reg.counter").add(1);
  EXPECT_EQ(registry.counter("test.reg.counter").value(), 1U);
}

#if !defined(LOBSTER_TELEMETRY_DISABLED)
TEST(MetricRegistry, MacrosRespectRuntimeSwitch) {
  Tracer::instance().reset();
  MetricRegistry::instance().reset();
  Tracer::instance().set_enabled(false);
  LOBSTER_METRIC_COUNT("test.reg.switched", 5);
  EXPECT_EQ(MetricRegistry::instance().render_csv().find("test.reg.switched"),
            std::string::npos);

  Tracer::instance().set_enabled(true);
  LOBSTER_METRIC_COUNT("test.reg.switched", 5);
  EXPECT_EQ(MetricRegistry::instance().counter("test.reg.switched").value(), 5U);
}

TEST(MetricRegistry, MetricsOnlyModeAggregatesWithoutRecordingEvents) {
  auto& tracer = Tracer::instance();
  tracer.reset();
  MetricRegistry::instance().reset();
  tracer.set_enabled(false);
  tracer.set_metrics_enabled(true);
  EXPECT_FALSE(active());
  EXPECT_TRUE(metrics_active());

  const std::uint64_t emitted_before = tracer.emitted_events();
  LOBSTER_METRIC_COUNT("test.reg.metrics_only", 3);
  LOBSTER_TRACE_INSTANT(kTest, "metrics_only_instant", 0);
  EXPECT_EQ(MetricRegistry::instance().counter("test.reg.metrics_only").value(), 3U);
  EXPECT_EQ(tracer.emitted_events(), emitted_before);  // no event recorded

  tracer.set_metrics_enabled(false);
  EXPECT_FALSE(metrics_active());
  LOBSTER_METRIC_COUNT("test.reg.metrics_only", 3);
  EXPECT_EQ(MetricRegistry::instance().counter("test.reg.metrics_only").value(), 3U);
}
#endif  // LOBSTER_TELEMETRY_DISABLED

}  // namespace
}  // namespace lobster::telemetry
