// telemetry/analysis: JSON parser, trace round-trip (simulator → Chrome
// trace → TraceLog → RunAnalysis), parity of the analyzer's aggregates with
// pipeline::RunMetrics, the report tables, the `lobster.spans.v1` codec
// (pinned bytes, hostile fields, seeded mutations) and span stitching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/strategies.hpp"
#include "common/rng.hpp"
#include "pipeline/simulator.hpp"
#include "telemetry/analysis/analyzer.hpp"
#include "telemetry/analysis/json.hpp"
#include "telemetry/analysis/report.hpp"
#include "telemetry/analysis/span_analysis.hpp"
#include "telemetry/analysis/trace_log.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace lobster::telemetry::analysis {
namespace {

// The simulator emits per-sample cache instants; size the (per-binary) ring
// before the first emission so the round-trip fixture loses nothing.
const bool kCapacitySet = [] {
  Tracer::instance().set_buffer_capacity(1u << 18);
  return true;
}();

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------
TEST(Json, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_json(R"({"a": 1.5, "b": [1, 2, 3], "s": "x", "t": true,
                                     "n": null, "o": {"k": -2e3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.get_number("a"), 1.5);
  ASSERT_TRUE(v.at("b").is_array());
  ASSERT_EQ(v.at("b").array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("b").array[1].number, 2.0);
  EXPECT_EQ(v.get_string("s"), "x");
  EXPECT_TRUE(v.get_bool("t"));
  EXPECT_EQ(v.at("n").type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(v.at("o").get_number("k"), -2000.0);
}

TEST(Json, ThrowsOnMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
}

TEST(Json, QuotedStringsRoundTrip) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  std::string doc = "{";
  append_json_quoted(doc, "key");
  doc += ": ";
  append_json_quoted(doc, raw);
  doc += "}";
  EXPECT_EQ(parse_json(doc).get_string("key"), raw);
}

TEST(Json, DeepNestingIsRejectedAtTheDepthBound) {
  // Each level of nesting is one level of recursion, so 100,000 open
  // brackets (a 100 KB file) once overflowed the stack. The parser stops at
  // its bound of 256 and names the byte where the 257th level opens.
  for (const std::string& text :
       {std::string(100000, '['), std::string(100000, '[') + std::string(100000, ']')}) {
    try {
      (void)parse_json(text);
      ADD_FAILURE() << "accepted " << text.size() << " bytes of nesting";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "json: nesting too deep at byte 256");
    }
  }
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += R"({"a":)";
  EXPECT_THROW((void)parse_json(objects), std::runtime_error);
  const JsonValue deepest = parse_json(std::string(256, '[') + std::string(256, ']'));
  EXPECT_TRUE(deepest.is_array());
}

TEST(Json, SeededMutationsParseOrThrow) {
  // Random byte flips, deletions, insertions and cuts of a bench metrics
  // document and a heartbeat line, the two kinds of file the tools read
  // back from disk: each either parses or throws std::runtime_error with a
  // byte offset. Runs under ASan/UBSan in CI, where an over-read would trap.
  const std::string metrics = R"({
  "schema": "lobster.bench_metrics.v1",
  "bench": "chaos_soak",
  "slowdown_vs_fault_free": 1,
  "remote_hit_recovery_frac": 0.982,
  "records": [
    {"panel": "chaos_soak", "workload": "nodes=4 gpus=2", "strategy": "fault_free", "warm_epoch_time_s": 0.312, "speedup_vs_baseline": 1, "hit_ratio": 0, "samples_per_s": 1.5e3},
    {"panel": "chaos_soak", "workload": "nodes=4 gpus=2", "strategy": "chaos", "warm_epoch_time_s": 0.312, "speedup_vs_baseline": -2e-3, "hit_ratio": null, "samples_per_s": 1460.25}
  ]
})";
  const std::string heartbeat =
      R"({"schema":"lobster.heartbeat.v1","seq":2,"uptime_s":0.040551,"iterations":175,)"
      R"("gap_frac":0.197540,"cache_hit_ratio":0.190982,"bytes_consumed":4882367718,)"
      R"("jobs_running":0.000000,"note":"a\"b\\c\u0041","flags":{"straggler_gap":true,)"
      R"("prefetch_outrun":false,"peer_down":false}})";
  static constexpr char kAlphabet[] = "0123456789-+.eEtrufalsn\\\"u,:{}[] \n";
  Rng rng(0x150A);
  for (const std::string* valid : {&metrics, &heartbeat}) {
    ASSERT_NO_THROW((void)parse_json(*valid));
    std::size_t rejected = 0;
    for (int round = 0; round < 4000; ++round) {
      std::string text = *valid;
      const int edits = 1 + static_cast<int>(rng.bounded(3));
      for (int e = 0; e < edits && !text.empty(); ++e) {
        const auto at = static_cast<std::size_t>(rng.bounded(text.size()));
        const char c = kAlphabet[rng.bounded(sizeof(kAlphabet) - 1)];
        switch (rng.bounded(4)) {
          case 0: text[at] = c; break;
          case 1: text.erase(at, 1); break;
          case 2: text.insert(at, 1, c); break;
          default: text.resize(at); break;
        }
      }
      try {
        (void)parse_json(text);
      } catch (const std::runtime_error& e) {
        ++rejected;
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("json: ", 0), 0U) << what;
        EXPECT_NE(what.find(" at byte "), std::string::npos) << what;
      }
    }
    EXPECT_GT(rejected, 0U);
  }
}

// ---------------------------------------------------------------------------
// Round-trip fixture: one traced simulator run, consumed both ways.
// ---------------------------------------------------------------------------
struct Artifacts {
  pipeline::SimulationResult result;
  std::uint32_t epochs = 3;
  std::uint16_t nodes = 2;
  std::uint16_t gpus = 8;
  TraceLog from_json;
  TraceLog from_snap;
};

const Artifacts& artifacts() {
  static const Artifacts* cached = [] {
    auto* a = new Artifacts();
    Tracer::instance().reset();
    MetricRegistry::instance().reset();
    Tracer::instance().set_enabled(true);

    auto preset = pipeline::preset_imagenet1k_multi_node(256.0, a->nodes);
    preset.epochs = a->epochs;
    a->gpus = preset.cluster.gpus_per_node;
    // Detail window over the warm epochs so RunMetrics keeps the per-GPU
    // records the analyzer must reproduce.
    a->result = pipeline::simulate(preset, baselines::LoaderStrategy::lobster(), 1, a->epochs);

    Tracer::instance().set_enabled(false);
    const TraceSnapshot snap = Tracer::instance().snapshot();
    EXPECT_EQ(snap.dropped, 0u) << "fixture ring overflowed; raise capacity";
    a->from_snap = from_snapshot(snap);

    const std::string path =
        (std::filesystem::temp_directory_path() / "lobster_test_trace_analysis.json").string();
    EXPECT_TRUE(write_chrome_trace_file(path));
    a->from_json = load_trace_file(path);
    std::filesystem::remove(path);
    return a;
  }();
  return *cached;
}

TEST(TraceRoundTrip, JsonAndSnapshotViewsAgree) {
  const auto& a = artifacts();
  EXPECT_FALSE(a.from_json.empty());
  EXPECT_EQ(a.from_json.events.size(), a.from_snap.events.size());
  EXPECT_EQ(a.from_json.emitted, a.from_snap.emitted);
  EXPECT_EQ(a.from_json.dropped, 0u);
  EXPECT_TRUE(a.from_json.complete());

  const auto json_runs = analyze_runs(a.from_json);
  const auto snap_runs = analyze_runs(a.from_snap);
  ASSERT_EQ(json_runs.size(), 1u);
  ASSERT_EQ(snap_runs.size(), 1u);
  // %.17g counter values and integer timestamps survive the JSON detour
  // bit-for-bit, so the two views analyze identically.
  EXPECT_EQ(json_runs[0].iterations, snap_runs[0].iterations);
  EXPECT_DOUBLE_EQ(json_runs[0].warm_time_s, snap_runs[0].warm_time_s);
  EXPECT_DOUBLE_EQ(json_runs[0].imbalanced_fraction, snap_runs[0].imbalanced_fraction);
  EXPECT_DOUBLE_EQ(json_runs[0].cluster.load_s, snap_runs[0].cluster.load_s);
  EXPECT_DOUBLE_EQ(json_runs[0].max_gap_s, snap_runs[0].max_gap_s);
}

TEST(TraceRoundTrip, AnalyzerMatchesRunMetrics) {
  const auto& a = artifacts();
  const auto runs = analyze_runs(a.from_json);
  ASSERT_EQ(runs.size(), 1u);
  const RunAnalysis& run = runs[0];
  const auto& metrics = a.result.metrics;

  EXPECT_EQ(run.nodes, a.nodes);
  EXPECT_EQ(run.epochs, a.epochs);
  EXPECT_EQ(run.iterations,
            static_cast<std::uint64_t>(a.epochs) * a.result.iterations_per_epoch);

  // The cluster t_max counters carry the exact barrier durations, so the
  // trace-reconstructed times match RunMetrics to fp noise — the 1%
  // acceptance bound is loose on purpose.
  EXPECT_NEAR(run.warm_time_s, metrics.time_after_epoch(1), 0.01 * metrics.time_after_epoch(1));
  EXPECT_NEAR(run.total_time_s, metrics.time_after_epoch(0), 0.01 * metrics.time_after_epoch(0));
  EXPECT_NEAR(run.imbalanced_fraction, metrics.imbalanced_fraction(), 1e-9);
  EXPECT_NEAR(run.local_hit_ratio, metrics.hit_ratio(), 0.01 * metrics.hit_ratio() + 1e-12);
}

TEST(TraceRoundTrip, BreakdownMatchesDetailRecords) {
  const auto& a = artifacts();
  const auto runs = analyze_runs(a.from_json);
  ASSERT_EQ(runs.size(), 1u);
  const RunAnalysis& run = runs[0];
  const auto& details = a.result.metrics.details();
  ASSERT_FALSE(details.empty());
  const std::uint16_t gpus = a.gpus;

  // Expected per-node warm sums from the ground-truth per-GPU records: the
  // trace carries the slowest GPU's stage spans per node.
  for (std::uint16_t node = 0; node < a.nodes; ++node) {
    double load = 0.0, train = 0.0, iter_time = 0.0;
    for (const auto& record : details) {
      double node_load = 0.0, node_train = 0.0;
      for (std::uint16_t g = 0; g < gpus; ++g) {
        const auto& gpu = record.gpus.at(flat_gpu_rank({node, g}, gpus));
        node_load = std::max(node_load, gpu.load);
        node_train = std::max(node_train, gpu.train);
      }
      load += node_load;
      train += node_train;
      iter_time += record.duration;
    }
    ASSERT_TRUE(run.per_node.contains(node));
    const StageTotals& totals = run.per_node.at(node);
    EXPECT_EQ(totals.iterations, details.size());
    EXPECT_NEAR(totals.load_s, load, 0.01 * load + 1e-9);
    EXPECT_NEAR(totals.train_s, train, 0.01 * train + 1e-9);
    EXPECT_NEAR(totals.iteration_s, iter_time, 0.01 * iter_time + 1e-9);
    // The fetch-tier decomposition sums back to the load span.
    const double fetch_sum = totals.fetch_local_s + totals.fetch_ssd_s +
                             totals.fetch_remote_s + totals.fetch_pfs_s;
    EXPECT_NEAR(fetch_sum, totals.load_s, 0.01 * totals.load_s + 1e-9);
  }

  // Attribution covers every warm iteration, and tier windows partition the
  // run's sample accesses.
  EXPECT_EQ(run.bounded_by_load + run.bounded_by_preproc + run.bounded_by_train,
            run.warm_iterations);
  EXPECT_EQ(run.warm_iterations, details.size());
  std::uint64_t window_samples = 0;
  for (const auto& window : run.tier_windows) window_samples += window.samples();
  EXPECT_GT(window_samples, 0u);
  EXPECT_GE(run.straggler_index, 1.0 - 1e-9);
  EXPECT_EQ(run.gap_frac_series.size(), run.iterations);
}

// ---------------------------------------------------------------------------
// Synthetic trace: hand-built TraceLog with known numbers.
// ---------------------------------------------------------------------------
TraceLog synthetic_log() {
  TraceLog log;
  log.track_names[{kVirtualPid, 0}] = "sim0/node0/pipeline";
  log.track_names[{kVirtualPid, 1}] = "sim0/node0/train";
  log.track_names[{kVirtualPid, 2}] = "sim0/node1/pipeline";
  log.track_names[{kVirtualPid, 3}] = "sim0/node1/train";
  log.track_names[{kVirtualPid, 4}] = "sim0/cluster";

  auto add = [&log](const char* name, char phase, std::uint32_t tid, double ts_us,
                    double dur_us, double value, std::uint64_t arg) {
    TraceLogEvent event;
    event.name = name;
    event.category = "pipeline";
    event.phase = phase;
    event.pid = kVirtualPid;
    event.tid = tid;
    event.ts_us = ts_us;
    event.dur_us = dur_us;
    event.value = value;
    event.arg = arg;
    log.events.push_back(std::move(event));
  };

  // Two epochs x one iteration. Iteration 0: node1 is load-bound and sets
  // the barrier (t_max 1.0s vs t_min 0.5s, imbalanced). Iteration 1 (warm):
  // node0 is train-bound (t_max 0.8s, t_min 0.7s).
  add("epoch_begin", 'i', 4, 0.0, 0, 0, 0);
  add("epoch_begin", 'i', 4, 1'000'000.0, 0, 0, 1);

  // iteration 0 at ts 0, duration 1s
  add("iteration", 'X', 0, 0.0, 1'000'000.0, 0, 0);
  add("iteration", 'X', 2, 0.0, 1'000'000.0, 0, 0);
  add("load", 'X', 0, 0.0, 300'000.0, 0, 0);       // node0: 0.3 load
  add("preproc", 'X', 0, 300'000.0, 100'000.0, 0, 0);  // +0.1 preproc
  add("train", 'X', 1, 0.0, 500'000.0, 0, 0);      // 0.5 train -> gpu 0.5
  add("load", 'X', 2, 0.0, 900'000.0, 0, 0);       // node1: 0.9 load
  add("preproc", 'X', 2, 900'000.0, 100'000.0, 0, 0);  // +0.1 -> pipeline 1.0
  add("train", 'X', 3, 0.0, 400'000.0, 0, 0);      // 0.4 train -> gpu 1.0
  add("t_max", 'C', 4, 0.0, 0, 1.0, 0);
  add("t_min", 'C', 4, 0.0, 0, 0.5, 0);
  add("imbalanced", 'i', 4, 0.0, 0, 0, 0);
  add("hits_local", 'C', 0, 0.0, 0, 10, 0);
  add("miss_pfs", 'C', 0, 0.0, 0, 10, 0);

  // iteration 1 at ts 1s, duration 0.8s
  add("iteration", 'X', 0, 1'000'000.0, 800'000.0, 0, 1);
  add("iteration", 'X', 2, 1'000'000.0, 800'000.0, 0, 1);
  add("load", 'X', 0, 1'000'000.0, 200'000.0, 0, 0);
  add("train", 'X', 1, 1'000'000.0, 800'000.0, 0, 0);  // node0 train-bound
  add("load", 'X', 2, 1'000'000.0, 100'000.0, 0, 0);
  add("train", 'X', 3, 1'000'000.0, 700'000.0, 0, 0);
  add("t_max", 'C', 4, 1'000'000.0, 0, 0.8, 0);
  add("t_min", 'C', 4, 1'000'000.0, 0, 0.7, 0);
  add("hits_local", 'C', 0, 1'000'000.0, 0, 30, 0);
  add("miss_pfs", 'C', 0, 1'000'000.0, 0, 10, 0);

  log.emitted = log.events.size();
  return log;
}

TEST(Analyzer, SyntheticTraceYieldsExactStatistics) {
  AnalyzeOptions options;
  options.tier_windows = 2;
  const auto runs = analyze_runs(synthetic_log(), options);
  ASSERT_EQ(runs.size(), 1u);
  const RunAnalysis& run = runs[0];

  EXPECT_EQ(run.run_id, 0u);
  EXPECT_EQ(run.nodes, 2u);
  EXPECT_EQ(run.epochs, 2u);
  EXPECT_EQ(run.iterations, 2u);
  EXPECT_EQ(run.warm_iterations, 1u);
  EXPECT_DOUBLE_EQ(run.total_time_s, 1.8);
  EXPECT_DOUBLE_EQ(run.warm_time_s, 0.8);
  EXPECT_DOUBLE_EQ(run.imbalanced_fraction, 0.5);
  EXPECT_DOUBLE_EQ(run.warm_imbalanced_fraction, 0.0);

  // Iteration 0: slowest node 1, load-bound, gap 0.5/1.0.
  ASSERT_EQ(run.iteration_samples.size(), 2u);
  EXPECT_EQ(run.iteration_samples[0].slowest_node, 1u);
  EXPECT_EQ(run.iteration_samples[0].bounded_by, Stage::kLoad);
  EXPECT_TRUE(run.iteration_samples[0].imbalanced);
  EXPECT_DOUBLE_EQ(run.iteration_samples[0].gap_s(), 0.5);
  EXPECT_DOUBLE_EQ(run.iteration_samples[0].gap_frac(), 0.5);
  EXPECT_EQ(run.iteration_samples[0].epoch, 0u);
  // Iteration 1: slowest node 0, train-bound (warm).
  EXPECT_EQ(run.iteration_samples[1].slowest_node, 0u);
  EXPECT_EQ(run.iteration_samples[1].bounded_by, Stage::kTrain);
  EXPECT_EQ(run.iteration_samples[1].epoch, 1u);
  EXPECT_NEAR(run.iteration_samples[1].gap_s(), 0.1, 1e-12);

  EXPECT_EQ(run.bounded_by_train, 1u);
  EXPECT_EQ(run.bounded_by_load, 0u);
  EXPECT_EQ(run.straggler_node, 0u);
  EXPECT_DOUBLE_EQ(run.straggler_share, 1.0);
  EXPECT_DOUBLE_EQ(run.straggler_index, 2.0);

  // Warm-only per-node breakdown (iteration 1 only).
  ASSERT_TRUE(run.per_node.contains(0u));
  EXPECT_DOUBLE_EQ(run.per_node.at(0u).load_s, 0.2);
  EXPECT_DOUBLE_EQ(run.per_node.at(0u).train_s, 0.8);
  EXPECT_DOUBLE_EQ(run.per_node.at(0u).idle_s, 0.0);
  EXPECT_DOUBLE_EQ(run.per_node.at(1u).idle_s, 0.8 - 0.7);

  // Hit accounting: all iterations. 40 local hits of 60 accesses.
  EXPECT_DOUBLE_EQ(run.local_hit_ratio, 40.0 / 60.0);
  ASSERT_EQ(run.tier_windows.size(), 2u);
  EXPECT_EQ(run.tier_windows[0].hits_local, 10u);
  EXPECT_EQ(run.tier_windows[1].hits_local, 30u);
  EXPECT_DOUBLE_EQ(run.tier_windows[1].local_hit_ratio(), 0.75);
}

TEST(Analyzer, EmptyAndForeignLogsYieldNoRuns) {
  EXPECT_TRUE(analyze_runs(TraceLog{}).empty());

  TraceLog log;  // wall-domain only: nothing to analyze
  log.track_names[{kWallPid, 7}] = "worker0";
  TraceLogEvent event;
  event.name = "queue_depth";
  event.phase = 'C';
  event.pid = kWallPid;
  event.tid = 7;
  event.value = 3.0;
  log.events.push_back(event);
  EXPECT_TRUE(analyze_runs(log).empty());

  const auto series = wall_counter_series(log, "queue_depth");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].second, 3.0);
  EXPECT_TRUE(wall_counter_series(log, "absent").empty());
}

TEST(Analyzer, PerJobMetricsGroupsRegistryByTenantPrefix) {
  auto& registry = MetricRegistry::instance();
  registry.reset();
  // Two tenants plus unrelated metrics that must not leak into the slice.
  registry.counter("cluster.job/resnet50-a/pfs_reads").add(12);
  registry.counter("cluster.job/resnet50-a/kv_hits").add(40);
  registry.gauge("cluster.job/resnet50-a/slowdown").set(1.25);
  registry.counter("cluster.job/vgg16-b/pfs_reads").add(7);
  registry.counter("cluster.jobs_admitted").add(2);  // no job segment: excluded
  registry.counter("cache.hits").add(99);

  const auto jobs = per_job_metrics(registry);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].job, "resnet50-a");
  EXPECT_EQ(jobs[0].counters.at("pfs_reads"), 12u);
  EXPECT_EQ(jobs[0].counters.at("kv_hits"), 40u);
  EXPECT_DOUBLE_EQ(jobs[0].gauges.at("slowdown"), 1.25);
  EXPECT_EQ(jobs[1].job, "vgg16-b");
  EXPECT_EQ(jobs[1].counters.at("pfs_reads"), 7u);
  EXPECT_TRUE(jobs[1].gauges.empty());

  // The raw prefix snapshot powering the grouping is exact too.
  const auto slice = registry.counters_with_prefix("cluster.job/vgg16-b/");
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice.at("cluster.job/vgg16-b/pfs_reads"), 7u);
  registry.reset();
}

TEST(TraceLogIo, RejectsNonTraceDocuments) {
  EXPECT_THROW(load_trace_text("not json"), std::runtime_error);
  EXPECT_THROW(load_trace_text("{\"foo\": 1}"), std::runtime_error);
  EXPECT_THROW(load_trace_file("/nonexistent/path.json"), std::runtime_error);
}

TEST(TraceLogIo, DropAccountingSurvivesJson) {
  const std::string doc = R"({"traceEvents": [
    {"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"sim0/node0/pipeline"}},
    {"name":"iteration","cat":"pipeline","ph":"X","pid":2,"tid":0,"ts":0,"dur":10,"args":{"arg":0}}
  ], "otherData": {"emitted_events": 5, "dropped_events": 3}})";
  const TraceLog log = load_trace_text(doc);
  EXPECT_EQ(log.emitted, 5u);
  EXPECT_EQ(log.dropped, 3u);
  EXPECT_FALSE(log.complete());
  EXPECT_EQ(log.track_name(2, 0), "sim0/node0/pipeline");
  ASSERT_EQ(log.events.size(), 1u);
}

// ---------------------------------------------------------------------------
// Report tables
// ---------------------------------------------------------------------------
TEST(AnalysisReport, TablesRenderInAllFormats) {
  const auto runs = analyze_runs(synthetic_log());
  ASSERT_EQ(runs.size(), 1u);

  const Table summary = summary_table(runs);
  EXPECT_EQ(summary.rows(), 1u);
  const Table breakdown = breakdown_table(runs[0]);
  EXPECT_EQ(breakdown.rows(), runs[0].per_node.size() + 1);  // + cluster row
  EXPECT_EQ(gap_table(runs[0]).rows(), 2u);                  // one per epoch
  EXPECT_EQ(attribution_table(runs[0]).rows(), 3u);

  EXPECT_NE(render_table(summary, Format::kText).find("imbalanced_frac"), std::string::npos);
  EXPECT_NE(render_table(summary, Format::kCsv).find(','), std::string::npos);
  const std::string md = render_table(summary, Format::kMarkdown);
  EXPECT_NE(md.find("| run"), std::string::npos);
  EXPECT_NE(md.find("|---|"), std::string::npos);

  Format format = Format::kText;
  EXPECT_TRUE(parse_format("md", format));
  EXPECT_EQ(format, Format::kMarkdown);
  EXPECT_FALSE(parse_format("yaml", format));
}

// ---------------------------------------------------------------------------
// lobster.spans.v1 codec
// ---------------------------------------------------------------------------

std::string spans_jsonl(const std::vector<TraceEvent>& spans) {
  std::ostringstream out;
  write_spans_jsonl(out, spans);
  return out.str();
}

TraceEvent sample_span() {
  TraceEvent span;
  span.trace_id = 0x1F;
  span.span_id = 0xA0;
  span.parent_span_id = 0;
  span.ts_us = 10;
  span.dur_us = 15;
  span.arg = 7;
  span.arg2 = 2;
  span.kind = SpanKind::kAttempt;
  span.status = StatusCode::kTimeout;
  span.rank = 3;
  return span;
}

const std::string kSampleLine =
    R"({"schema":"lobster.spans.v1","trace":"1f","span":"a0","parent":"0","kind":"attempt",)"
    R"("status":"timeout","rank":3,"begin_us":10,"end_us":25,"arg":7,"arg2":2})";

/// `line` with the first `"key":value` member swapped for `replacement`
/// (empty: the member is removed).
std::string with_member(const std::string& line, const std::string& key,
                        const std::string& replacement) {
  const std::string quoted = "\"" + key + "\":";
  const auto at = line.find(quoted);
  EXPECT_NE(at, std::string::npos) << key;
  auto end = line.find_first_of(",}", at + quoted.size());
  if (line[at + quoted.size()] == '"') end = line.find('"', at + quoted.size() + 1) + 1;
  std::string out = line.substr(0, at);
  if (replacement.empty()) {
    if (line[end] == ',') ++end;  // drop the member and its separator
  } else {
    out += quoted + replacement;
  }
  return out + line.substr(end);
}

TEST(SpanJsonl, WriterBytesArePinned) {
  EXPECT_EQ(spans_jsonl({sample_span()}), kSampleLine + "\n");
}

TEST(SpanJsonl, EveryFieldRoundTrips) {
  std::vector<TraceEvent> spans;
  for (std::uint8_t k = 0; k < static_cast<std::uint8_t>(SpanKind::kKindCount); ++k) {
    TraceEvent span = sample_span();
    span.kind = static_cast<SpanKind>(k);
    span.status = static_cast<StatusCode>(k % (static_cast<int>(StatusCode::kInvalid) + 1));
    span.trace_id = ~0ULL - k;  // past 2^53: ids stay exact as hex
    span.span_id = 1ULL << (k + 50);
    span.parent_span_id = k;
    span.rank = static_cast<std::uint16_t>(0xFFFF - k);
    span.arg2 = (1ULL << 53) - k;
    spans.push_back(span);
  }
  EXPECT_EQ(load_spans(spans_jsonl(spans)), spans);
}

TEST(SpanJsonl, RejectsHostileFieldsWithTheirLineNumber) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"trace", ""},   {"span", ""},     {"parent", ""},   {"kind", ""},
      {"status", ""},  {"rank", ""},     {"begin_us", ""}, {"end_us", ""},
      {"arg", ""},     {"arg2", ""},
      {"trace", R"("xyz")"},
      {"span", R"("")"},
      {"parent", R"("11111111111111111")"},
      {"trace", "31"},
      {"kind", R"("teleport")"},
      {"status", R"("maybe")"},
      {"kind", "3"},
      {"rank", "-1"},
      {"rank", "65536"},
      {"rank", "1.5"},
      {"begin_us", "-1"},
      {"end_us", "1e30"},
      {"arg", "2.5"},
      {"arg2", "9007199254740994"},
      {"arg", R"("7")"},
      {"end_us", "null"},
      {"schema", R"("lobster.spans.v2")"},
  };
  for (const auto& [key, replacement] : cases) {
    const std::string text = kSampleLine + "\n" + with_member(kSampleLine, key, replacement) + "\n";
    try {
      (void)load_spans(text);
      ADD_FAILURE() << "accepted " << key << "=" << replacement;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("spans line 2"), std::string::npos)
          << key << "=" << replacement << ": " << e.what();
    }
  }
  EXPECT_THROW((void)load_spans("[1, 2]\n"), std::runtime_error);
  EXPECT_EQ(load_spans(kSampleLine + "\n").front(), sample_span());
}

TEST(SpanJsonl, SeededMutationsAreRejectedOrRoundTrip) {
  // Random byte flips, deletions, insertions and cuts of a valid stream:
  // the decoder either throws with a line number or returns spans that
  // re-encode to a stream it decodes to the same spans. Runs under
  // ASan/UBSan in CI, where an out-of-range cast would trap.
  std::vector<TraceEvent> spans;
  for (std::uint64_t i = 0; i < 3; ++i) {
    TraceEvent span = sample_span();
    span.span_id = 0xA0 + i;
    span.parent_span_id = i == 0 ? 0 : 0xA0;
    span.arg = 1000 * i + 7;
    spans.push_back(span);
  }
  const std::string valid = spans_jsonl(spans);
  static constexpr char kAlphabet[] = "0123456789abcdefxyz-+.eE\",:{}[] \n";
  Rng rng(0x5BA7);
  std::size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string text = valid;
    const int edits = 1 + static_cast<int>(rng.bounded(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const auto at = static_cast<std::size_t>(rng.bounded(text.size()));
      const char c = kAlphabet[rng.bounded(sizeof(kAlphabet) - 1)];
      switch (rng.bounded(4)) {
        case 0: text[at] = c; break;
        case 1: text.erase(at, 1); break;
        case 2: text.insert(at, 1, c); break;
        default: text.resize(at); break;
      }
    }
    try {
      const auto decoded = load_spans(text);
      EXPECT_EQ(load_spans(spans_jsonl(decoded)), decoded) << text;
    } catch (const std::runtime_error& e) {
      ++rejected;
      EXPECT_EQ(std::string(e.what()).rfind("spans line ", 0), 0U) << e.what();
    }
  }
  EXPECT_GT(rejected, 0U);
}

// ---------------------------------------------------------------------------
// Span stitching
// ---------------------------------------------------------------------------

/// One executor batch tree: the first envelope's attempt on rank 1 comes
/// back corrupt (rank 1's serve still parents on it, so the tree touches
/// two ranks), the sample detours, and the re-route envelope's attempt is
/// served on rank 2.
std::vector<TraceEvent> rerouted_batch_tree() {
  const auto span = [](std::uint64_t id, std::uint64_t parent, SpanKind kind,
                       std::uint16_t rank, std::uint64_t begin, std::uint64_t end,
                       StatusCode status = StatusCode::kOk) {
    TraceEvent s;
    s.trace_id = 0x71;
    s.span_id = id;
    s.parent_span_id = parent;
    s.kind = kind;
    s.status = status;
    s.rank = rank;
    s.ts_us = begin;
    s.dur_us = end - begin;
    return s;
  };
  std::vector<TraceEvent> spans{
      span(1, 0, SpanKind::kFetch, 0, 0, 100),
      span(2, 1, SpanKind::kMultiGet, 0, 1, 40),
      span(3, 2, SpanKind::kAttempt, 0, 1, 40, StatusCode::kCorrupt),
      span(4, 3, SpanKind::kServe, 1, 5, 30),
      span(5, 1, SpanKind::kDetour, 0, 41, 41),
      span(6, 1, SpanKind::kMultiGet, 0, 42, 60),
      span(7, 6, SpanKind::kAttempt, 0, 42, 60),
      span(8, 7, SpanKind::kServe, 2, 45, 55),
  };
  spans.front().arg = 2;   // samples routed to peers
  spans.front().arg2 = 5;  // iteration
  return spans;
}

TEST(SpanStitching, ARerouteServedOnAnotherRankIsStitched) {
  const auto analysis = analyze_spans(rerouted_batch_tree());
  ASSERT_EQ(analysis.traces.size(), 1u);
  const TraceSummary& trace = analysis.traces.front();
  EXPECT_TRUE(trace.well_formed);
  EXPECT_TRUE(trace.degraded);
  EXPECT_TRUE(trace.stitched);
  EXPECT_EQ(trace.iter, 5u);
  EXPECT_EQ(analysis.fetch_traces, 1u);
  EXPECT_EQ(analysis.degraded_fetches, 1u);
  EXPECT_EQ(analysis.cross_rank_fetches, 1u);
}

TEST(SpanStitching, ARerouteAttemptWithoutAServeIsNotStitched) {
  auto spans = rerouted_batch_tree();
  spans.pop_back();  // the re-route's serve never arrived
  const auto analysis = analyze_spans(spans);
  ASSERT_EQ(analysis.traces.size(), 1u);
  const TraceSummary& trace = analysis.traces.front();
  EXPECT_TRUE(trace.well_formed);
  EXPECT_TRUE(trace.degraded);
  EXPECT_GE(trace.ranks, 2u);  // the first envelope's serve still crossed ranks
  EXPECT_FALSE(trace.stitched);
  EXPECT_EQ(analysis.cross_rank_fetches, 0u);
}

TEST(SpanStitching, AServeWhoseParentDoesNotResolveIsNotStitched) {
  auto spans = rerouted_batch_tree();
  spans.back().parent_span_id = 0xFF;  // lost the requester's attempt context
  const auto analysis = analyze_spans(spans);
  ASSERT_EQ(analysis.traces.size(), 1u);
  const TraceSummary& trace = analysis.traces.front();
  EXPECT_FALSE(trace.well_formed);
  EXPECT_FALSE(trace.stitched);
  EXPECT_EQ(analysis.cross_rank_fetches, 0u);
  EXPECT_EQ(analysis.malformed_traces, 1u);
}

}  // namespace
}  // namespace lobster::telemetry::analysis
