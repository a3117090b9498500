// Online runtime: payloads, distribution manager over the bus, plan
// execution end-to-end (planner -> executor).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "baselines/strategies.hpp"
#include "core/planner.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"

namespace lobster::runtime {
namespace {

TEST(SamplePayload, RoundTripsAndDetectsCorruption) {
  auto payload = make_sample_payload(1234, 4096);
  EXPECT_EQ(payload.size(), 4096U);
  EXPECT_TRUE(verify_sample_payload(1234, payload));
  EXPECT_FALSE(verify_sample_payload(1235, payload));
  payload[100] ^= std::byte{0xFF};
  EXPECT_FALSE(verify_sample_payload(1234, payload));
}

TEST(SamplePayload, DifferentSamplesDiffer) {
  EXPECT_NE(make_sample_payload(1, 256), make_sample_payload(2, 256));
}

TEST(SamplePayload, TinyPayloads) {
  EXPECT_TRUE(verify_sample_payload(9, make_sample_payload(9, 0)));
  EXPECT_TRUE(verify_sample_payload(9, make_sample_payload(9, 2)));
}

// Payload layout: 16 header bytes (id, length), then the keyed pattern in
// 64-byte lines of eight 8-byte words.
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kPatternWordBytes = 8;
constexpr std::size_t kPatternLineBytes = 64;

TEST(SamplePayload, FillAndCheckAgreeForEverySizeUpTo320) {
  // Sizes 0..320 cover header-only payloads, partial lines, word tails and
  // byte tails. The pattern does not depend on the length, so every size's
  // pattern must be a prefix of the longest one: lines, words and bytes all
  // come from the same word function.
  constexpr SampleId kSample = 4242;
  const auto longest = make_sample_payload(kSample, 320);
  for (std::size_t size = 0; size <= 320; ++size) {
    SCOPED_TRACE(size);
    const auto payload = make_sample_payload(kSample, size);
    ASSERT_EQ(payload.size(), size);
    EXPECT_TRUE(verify_sample_payload(kSample, payload));
    if (size > kHeaderBytes) {
      EXPECT_TRUE(std::equal(payload.begin() + kHeaderBytes, payload.end(),
                             longest.begin() + kHeaderBytes));
    }
  }
}

TEST(SamplePayload, EverySingleByteFlipAtEveryOffsetFails) {
  constexpr SampleId kSample = 31337;
  const auto clean = make_sample_payload(kSample, 1000);
  auto corrupted = clean;
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    for (unsigned flip = 1; flip < 256; ++flip) {
      corrupted[pos] = clean[pos] ^ static_cast<std::byte>(flip);
      ASSERT_FALSE(verify_sample_payload(kSample, corrupted)) << "pos=" << pos << " flip=" << flip;
    }
    corrupted[pos] = clean[pos];
  }
  EXPECT_TRUE(verify_sample_payload(kSample, corrupted));
}

TEST(SamplePayload, SwappedWordsWithinALineAndSwappedLinesFail) {
  constexpr SampleId kSample = 77;
  const auto clean = make_sample_payload(kSample, 1000);
  const std::size_t lines = (clean.size() - kHeaderBytes) / kPatternLineBytes;
  ASSERT_GE(lines, 2U);
  const auto swapped = [&](std::size_t a, std::size_t b, std::size_t width) {
    auto payload = clean;
    std::swap_ranges(payload.begin() + static_cast<std::ptrdiff_t>(a),
                     payload.begin() + static_cast<std::ptrdiff_t>(a + width),
                     payload.begin() + static_cast<std::ptrdiff_t>(b));
    return payload;
  };
  for (std::size_t line = 0; line < lines; ++line) {
    const std::size_t base = kHeaderBytes + line * kPatternLineBytes;
    for (std::size_t a = 0; a < kPatternLineBytes; a += kPatternWordBytes) {
      for (std::size_t b = a + kPatternWordBytes; b < kPatternLineBytes; b += kPatternWordBytes) {
        EXPECT_FALSE(verify_sample_payload(
            kSample, swapped(base + a, base + b, kPatternWordBytes)))
            << "line " << line << " words " << a / 8 << "," << b / 8;
      }
    }
  }
  for (std::size_t a = 0; a < lines; ++a) {
    for (std::size_t b = a + 1; b < lines; ++b) {
      EXPECT_FALSE(verify_sample_payload(
          kSample, swapped(kHeaderBytes + a * kPatternLineBytes,
                           kHeaderBytes + b * kPatternLineBytes, kPatternLineBytes)))
          << "lines " << a << "," << b;
    }
  }
}

TEST(SamplePayload, TruncatedOrExtendedByUpToALineFails) {
  constexpr SampleId kSample = 505;
  constexpr std::size_t kSize = 1000;
  const auto clean = make_sample_payload(kSample, kSize);
  for (std::size_t delta = 1; delta <= kPatternLineBytes; ++delta) {
    SCOPED_TRACE(delta);
    const std::vector<std::byte> truncated(clean.begin(),
                                           clean.end() - static_cast<std::ptrdiff_t>(delta));
    EXPECT_FALSE(verify_sample_payload(kSample, truncated));
    auto zero_padded = clean;
    zero_padded.resize(kSize + delta);
    EXPECT_FALSE(verify_sample_payload(kSample, zero_padded));
    // The hardest extension: the true pattern continues, only the length
    // header still says kSize.
    auto continued = make_sample_payload(kSample, kSize + delta);
    std::copy(clean.begin(), clean.begin() + kHeaderBytes, continued.begin());
    EXPECT_FALSE(verify_sample_payload(kSample, continued));
  }
}

TEST(SamplePayload, OneSamplesPayloadFailsAsAnother) {
  for (const std::size_t size : {7UL, 8UL, 15UL, 16UL, 80UL, 1000UL}) {
    for (SampleId a = 1; a <= 8; ++a) {
      const auto payload = make_sample_payload(a, size);
      for (SampleId b = 1; b <= 8; ++b) {
        if (a == b) continue;
        EXPECT_FALSE(verify_sample_payload(b, payload)) << a << " as " << b << ", " << size;
        if (size > kHeaderBytes) {
          // With the id header rewritten, the pattern alone, keyed on the
          // id, still tells the samples apart.
          auto relabeled = payload;
          std::memcpy(relabeled.data(), &b, sizeof(b));
          EXPECT_FALSE(verify_sample_payload(b, relabeled)) << a << " relabeled " << b;
        }
      }
    }
  }
}

TEST(DistributionManager, ServesHeldSamples) {
  comm::MessageBus bus(2);
  DistributionManager server(bus.endpoint(1), [](SampleId s) { return s == 42; },
                             [](SampleId) { return Bytes{512}; });
  server.start();
  DistributionManager client(bus.endpoint(0), nullptr, nullptr);

  const auto payload = client.fetch_remote(42, 1);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->size(), 512U);
  EXPECT_TRUE(verify_sample_payload(42, *payload));
  EXPECT_EQ(server.served_requests(), 1U);

  const auto missing = client.fetch_remote(7, 1);
  EXPECT_FALSE(missing.has_value());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);  // authoritative miss, not a timeout
  EXPECT_EQ(server.failed_requests(), 1U);
  server.stop();
}

TEST(DistributionManager, BidirectionalServing) {
  comm::MessageBus bus(2);
  DistributionManager node0(bus.endpoint(0), [](SampleId s) { return s % 2 == 0; },
                            [](SampleId) { return Bytes{128}; });
  DistributionManager node1(bus.endpoint(1), [](SampleId s) { return s % 2 == 1; },
                            [](SampleId) { return Bytes{128}; });
  node0.start();
  node1.start();
  EXPECT_TRUE(node0.fetch_remote(3, 1).has_value());   // odd held by node 1
  EXPECT_TRUE(node1.fetch_remote(4, 0).has_value());   // even held by node 0
  EXPECT_FALSE(node0.fetch_remote(4, 1).has_value());  // node 1 lacks evens
  node0.stop();
  node1.stop();
}

TEST(DistributionManager, StopIsIdempotent) {
  comm::MessageBus bus(1);
  DistributionManager manager(bus.endpoint(0), nullptr, nullptr);
  manager.start();
  manager.stop();
  manager.stop();
}

// ---- end-to-end: plan a small Lobster run, execute it with real threads.

struct ExecutorFixture : public ::testing::Test {
  static pipeline::ExperimentPreset small_preset() {
    auto preset = pipeline::preset_imagenet1k_single_node(4000.0);
    preset.epochs = 2;
    preset.cluster.gpus_per_node = 2;
    preset.cluster.cpu_threads = 16;
    preset.batch_size = 4;
    return preset;
  }
};

TEST_F(ExecutorFixture, PlannerProducesCompletePlan) {
  const auto preset = small_preset();
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());
  const auto& plan = planned.plan;
  EXPECT_EQ(plan.cluster_nodes, 1);
  EXPECT_EQ(plan.gpus_per_node, 2);
  EXPECT_EQ(plan.epochs, 2U);
  ASSERT_EQ(plan.total_iterations(),
            static_cast<std::size_t>(plan.epochs) * plan.iterations_per_epoch);
  for (const auto& iteration : plan.iterations) {
    ASSERT_EQ(iteration.nodes.size(), 1U);
    EXPECT_EQ(iteration.nodes[0].load_threads.size(), 2U);
    EXPECT_GE(iteration.nodes[0].preproc_threads, 1U);
  }
  EXPECT_GT(plan.total_prefetches(), 0U);
}

TEST_F(ExecutorFixture, ExecutesPlanCleanly) {
  const auto preset = small_preset();
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());

  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = preset.cluster.nodes;
  sampler_config.gpus_per_node = preset.cluster.gpus_per_node;
  sampler_config.batch_size = preset.batch_size;
  sampler_config.seed = preset.seed;
  const data::EpochSampler sampler(sampler_config);

  const std::uint64_t expected_demand = static_cast<std::uint64_t>(planned.plan.epochs) *
                                        planned.plan.iterations_per_epoch * 2 *
                                        preset.batch_size;
  // Samples are classified by the worker that claims them, after the
  // previous iteration's prefetches joined, so the local hits are a pure
  // function of the plan: the same on every run, and exactly the planner's
  // predicted hit ratio.
  const auto predicted_hits = static_cast<std::uint64_t>(
      std::llround(planned.simulation.metrics.hit_ratio() * static_cast<double>(expected_demand)));
  EXPECT_GT(predicted_hits, 0U);
  for (int run = 0; run < 3; ++run) {
    ExecutorConfig config;
    config.node = 0;
    PlanExecutor executor(config, catalog, sampler, planned.plan);
    const auto report = executor.run();

    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.samples_delivered, expected_demand);
    EXPECT_EQ(report.iterations.size(), planned.plan.total_iterations());
    EXPECT_GT(report.virtual_total, 0.0);

    std::uint64_t hits = 0;
    for (const auto& iteration : report.iterations) hits += iteration.local_hits;
    EXPECT_EQ(hits, predicted_hits) << "run " << run;
  }
}

TEST_F(ExecutorFixture, ExecutorValidatesArguments) {
  const auto preset = small_preset();
  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = 1;
  sampler_config.gpus_per_node = 2;
  sampler_config.batch_size = 4;
  const data::EpochSampler sampler(sampler_config);
  const Plan empty;
  ExecutorConfig config;
  EXPECT_THROW(PlanExecutor(config, catalog, sampler, empty), std::invalid_argument);
}

}  // namespace
}  // namespace lobster::runtime

// ---- plan serialization (appended coverage).

#include "runtime/plan_io.hpp"

namespace lobster::runtime {
namespace {

Plan small_plan() {
  Plan plan;
  plan.cluster_nodes = 2;
  plan.gpus_per_node = 2;
  plan.epochs = 1;
  plan.iterations_per_epoch = 2;
  plan.batch_size = 4;
  plan.seed = 99;
  for (IterId i = 0; i < 2; ++i) {
    IterationPlan iteration;
    iteration.iter = i;
    iteration.nodes.resize(2);
    for (auto& node : iteration.nodes) {
      node.preproc_threads = 6;
      node.load_threads = {3, 5};
      node.prefetches = {10, 20, 30};
      node.evictions = {7};
    }
    plan.iterations.push_back(iteration);
  }
  return plan;
}

TEST(PlanIo, RoundTripsExactly) {
  const Plan original = small_plan();
  const auto bytes = serialize_plan(original);
  const Plan loaded = deserialize_plan(bytes);
  EXPECT_EQ(loaded.cluster_nodes, original.cluster_nodes);
  EXPECT_EQ(loaded.gpus_per_node, original.gpus_per_node);
  EXPECT_EQ(loaded.epochs, original.epochs);
  EXPECT_EQ(loaded.iterations_per_epoch, original.iterations_per_epoch);
  EXPECT_EQ(loaded.batch_size, original.batch_size);
  EXPECT_EQ(loaded.seed, original.seed);
  ASSERT_EQ(loaded.iterations.size(), original.iterations.size());
  for (std::size_t i = 0; i < loaded.iterations.size(); ++i) {
    EXPECT_EQ(loaded.iterations[i].iter, original.iterations[i].iter);
    ASSERT_EQ(loaded.iterations[i].nodes.size(), 2U);
    for (std::size_t n = 0; n < 2; ++n) {
      EXPECT_EQ(loaded.iterations[i].nodes[n].preproc_threads, 6U);
      EXPECT_EQ(loaded.iterations[i].nodes[n].load_threads,
                original.iterations[i].nodes[n].load_threads);
      EXPECT_EQ(loaded.iterations[i].nodes[n].prefetches,
                original.iterations[i].nodes[n].prefetches);
      EXPECT_EQ(loaded.iterations[i].nodes[n].evictions,
                original.iterations[i].nodes[n].evictions);
    }
  }
}

TEST(PlanIo, FileRoundTrip) {
  const Plan original = small_plan();
  const std::string path = ::testing::TempDir() + "/lobster_plan.bin";
  save_plan(original, path);
  const Plan loaded = load_plan(path);
  EXPECT_EQ(loaded.total_prefetches(), original.total_prefetches());
}

TEST(PlanIo, RejectsBadMagicAndVersion) {
  auto bytes = serialize_plan(small_plan());
  auto corrupted = bytes;
  corrupted[0] = std::byte{0x00};
  EXPECT_THROW(deserialize_plan(corrupted), std::runtime_error);
  corrupted = bytes;
  corrupted[4] = std::byte{0xFF};  // version
  EXPECT_THROW(deserialize_plan(corrupted), std::runtime_error);
}

TEST(PlanIo, RejectsTruncation) {
  const auto bytes = serialize_plan(small_plan());
  for (const std::size_t keep : {std::size_t{3}, std::size_t{16}, bytes.size() - 1}) {
    std::vector<std::byte> truncated(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(deserialize_plan(truncated), std::runtime_error) << "keep=" << keep;
  }
}

TEST(PlanIo, RejectsTrailingGarbage) {
  auto bytes = serialize_plan(small_plan());
  bytes.push_back(std::byte{0x42});
  EXPECT_THROW(deserialize_plan(bytes), std::runtime_error);
}

TEST(PlanIo, RejectsMissingFile) {
  EXPECT_THROW(load_plan("/nonexistent/path/plan.bin"), std::runtime_error);
}

TEST(PlanIo, PlannedRealPlanSurvivesRoundTripAndExecutes) {
  auto preset = pipeline::preset_imagenet1k_single_node(4000.0);
  preset.epochs = 1;
  preset.cluster.gpus_per_node = 2;
  preset.cluster.cpu_threads = 8;
  preset.batch_size = 4;
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());
  const std::string path = ::testing::TempDir() + "/real_plan.bin";
  save_plan(planned.plan, path);
  const Plan loaded = load_plan(path);

  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = 1;
  sampler_config.gpus_per_node = 2;
  sampler_config.batch_size = 4;
  sampler_config.seed = preset.seed;
  const data::EpochSampler sampler(sampler_config);
  ExecutorConfig executor_config;
  PlanExecutor executor(executor_config, catalog, sampler, loaded);
  const auto report = executor.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.iterations.size(), loaded.total_iterations());
}

}  // namespace
}  // namespace lobster::runtime

// ---- robustness fuzzing: corrupted plans and payloads must fail loudly,
// never crash or silently succeed (appended coverage).

#include "common/rng.hpp"

namespace lobster::runtime {
namespace {

TEST(PlanIoFuzz, RandomByteFlipsNeverCrash) {
  const auto clean = serialize_plan(small_plan());
  Rng rng(31337);
  int accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    auto corrupted = clean;
    const auto flips = 1 + rng.bounded(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.bounded(corrupted.size()));
      corrupted[pos] ^= static_cast<std::byte>(1 + rng.bounded(255));
    }
    try {
      const Plan plan = deserialize_plan(corrupted);
      // A flip in a payload field (thread count, sample id) can legitimately
      // decode; structure must still be coherent.
      ++accepted;
      for (const auto& iteration : plan.iterations) {
        ASSERT_EQ(iteration.nodes.size(), plan.cluster_nodes);
      }
    } catch (const std::runtime_error&) {
      // expected for structural corruption
    }
  }
  // Most random flips hit structure or lengths; a silent-accept-everything
  // parser would make accepted == 500.
  EXPECT_LT(accepted, 500);
}

TEST(PlanIoFuzz, RandomTruncationsNeverCrash) {
  const auto clean = serialize_plan(small_plan());
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const auto keep = static_cast<std::size_t>(rng.bounded(clean.size()));
    std::vector<std::byte> truncated(clean.begin(), clean.begin() + keep);
    EXPECT_THROW(deserialize_plan(truncated), std::runtime_error) << "keep=" << keep;
  }
}

TEST(PlanIoFuzz, RandomGarbageNeverCrash) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> garbage(rng.bounded(256));
    for (auto& b : garbage) b = static_cast<std::byte>(rng.bounded(256));
    EXPECT_THROW(deserialize_plan(garbage), std::runtime_error);
  }
}

/// A hand-written plan file: a header for one node of one GPU, then `body`.
std::vector<std::byte> plan_bytes(std::uint32_t epochs, std::uint32_t iterations_per_epoch,
                                  std::uint64_t iteration_count,
                                  const std::vector<std::uint32_t>& body) {
  std::vector<std::byte> bytes;
  const auto put = [&bytes](const auto value) {
    const auto* raw = reinterpret_cast<const std::byte*>(&value);
    bytes.insert(bytes.end(), raw, raw + sizeof(value));
  };
  put(kPlanMagic);
  put(kPlanVersion);
  put(std::uint16_t{1});  // nodes
  put(std::uint16_t{1});  // gpus per node
  put(epochs);
  put(iterations_per_epoch);
  put(std::uint32_t{1});  // batch size
  put(std::uint64_t{0});  // seed
  put(iteration_count);
  for (const std::uint32_t word : body) put(word);
  return bytes;
}

/// The message deserialize_plan throws for `bytes` ("" when it accepts).
std::string plan_error(const std::vector<std::byte>& bytes) {
  try {
    (void)deserialize_plan(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(PlanIoFuzz, FalseCountsFailAtTheCountBeforeAllocating) {
  // epochs * I iterations that the 40-byte header cannot hold: refused as
  // malformed, not attempted as a 2^32-iteration reservation.
  const auto huge = plan_bytes(1u << 16, 1u << 16, std::uint64_t{1} << 32, {});
  ASSERT_EQ(huge.size(), 40U);
  EXPECT_NE(plan_error(huge).find("iteration count"), std::string::npos) << plan_error(huge);

  // One iteration (id 0, 1 preproc thread, one load thread) whose id lists
  // claim more entries than follow: each fails at its count.
  const std::uint32_t kMaxList = 1u << 24;
  const std::vector<std::pair<std::vector<std::uint32_t>, const char*>> cases = {
      {{0, 0, 1, 1, 1, kMaxList, 0}, "prefetches count"},
      {{0, 0, 1, 1, 1, 2, 7}, "prefetches count"},
      {{0, 0, 1, 1, 1, 0, kMaxList}, "evictions count"},
      {{0, 0, 1, 1, 1, 1, 7, 0xFFFF}, "evictions count"},
  };
  for (const auto& [body, what] : cases) {
    const std::string error = plan_error(plan_bytes(1, 1, 1, body));
    EXPECT_NE(error.find(what), std::string::npos) << what << ": " << error;
  }
  // The same iteration with true counts decodes.
  const Plan plan = deserialize_plan(plan_bytes(1, 1, 1, {0, 0, 1, 1, 1, 1, 7, 1, 9}));
  ASSERT_EQ(plan.iterations.size(), 1U);
  EXPECT_EQ(plan.iterations[0].nodes[0].prefetches, std::vector<SampleId>{7});
  EXPECT_EQ(plan.iterations[0].nodes[0].evictions, std::vector<SampleId>{9});
}

TEST(PayloadFuzz, AnySingleCorruptionIsDetected) {
  const SampleId sample = 777;
  const auto clean = make_sample_payload(sample, 2048);
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = clean;
    const auto pos = static_cast<std::size_t>(rng.bounded(corrupted.size()));
    const auto flip = static_cast<std::byte>(1 + rng.bounded(255));
    corrupted[pos] ^= flip;
    EXPECT_FALSE(verify_sample_payload(sample, corrupted)) << "pos=" << pos;
  }
}

TEST(PayloadFuzz, WrongLengthIsDetected) {
  const auto clean = make_sample_payload(5, 512);
  auto shorter = clean;
  shorter.pop_back();
  EXPECT_FALSE(verify_sample_payload(5, shorter));
  auto longer = clean;
  longer.push_back(std::byte{0});
  EXPECT_FALSE(verify_sample_payload(5, longer));
}

}  // namespace
}  // namespace lobster::runtime

// ---- plan-enforced pool sizing (appended coverage).

namespace lobster::runtime {
namespace {

TEST(PlanExecutor, EnforcesPlannedPoolSizesPerIteration) {
  Plan plan = small_plan();
  // Vary the thread plan across the two iterations.
  plan.iterations[0].nodes[0].load_threads = {2, 2};
  plan.iterations[0].nodes[0].preproc_threads = 3;
  plan.iterations[1].nodes[0].load_threads = {5, 1};
  plan.iterations[1].nodes[0].preproc_threads = 6;

  const data::SampleCatalog catalog(data::DatasetSpec::uniform(64, 256), plan.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = 64;
  sampler_config.nodes = plan.cluster_nodes;
  sampler_config.gpus_per_node = plan.gpus_per_node;
  sampler_config.batch_size = plan.batch_size;
  sampler_config.seed = plan.seed;
  const data::EpochSampler sampler(sampler_config);

  ExecutorConfig config;
  config.node = 0;
  PlanExecutor executor(config, catalog, sampler, plan);
  const auto report = executor.run();
  ASSERT_EQ(report.iterations.size(), 2U);
  EXPECT_EQ(report.iterations[0].load_pool_size, 4U);
  EXPECT_EQ(report.iterations[0].preproc_pool_size, 3U);
  EXPECT_EQ(report.iterations[1].load_pool_size, 6U);
  EXPECT_EQ(report.iterations[1].preproc_pool_size, 6U);
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace lobster::runtime

// ---- KV-store remote backend (appended coverage).

#include "cache/kv_store.hpp"

namespace lobster::runtime {
namespace {

TEST(KvStore, PutGetEraseRoundTrip) {
  cache::KvStore store(4);
  const auto miss = store.get(7);
  EXPECT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.put(7, make_sample_payload(7, 128)).ok());
  ASSERT_TRUE(store.contains(7));
  const auto payload = store.get(7);
  ASSERT_TRUE(payload.ok());
  ASSERT_NE(*payload, nullptr);
  EXPECT_TRUE(verify_sample_payload(7, **payload));
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(store.bytes(), 128U);
  EXPECT_TRUE(store.erase(7));
  EXPECT_FALSE(store.erase(7));
  EXPECT_EQ(store.bytes(), 0U);
  const auto stats = store.stats();
  EXPECT_EQ(stats.puts, 1U);
  EXPECT_EQ(stats.get_hits, 1U);
  EXPECT_EQ(stats.get_misses, 1U);
  EXPECT_EQ(stats.erases, 1U);
}

TEST(KvStore, OverwriteAdjustsBytes) {
  cache::KvStore store(2);
  store.put(1, std::vector<std::byte>(100));
  store.put(1, std::vector<std::byte>(40));
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(store.bytes(), 40U);
}

TEST(KvStore, RejectsNonPowerOfTwoShards) {
  EXPECT_THROW(cache::KvStore(3), std::invalid_argument);
  EXPECT_THROW(cache::KvStore(0), std::invalid_argument);
}

TEST(KvStore, ConcurrentPutsAndGetsAreConsistent) {
  cache::KvStore store(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (SampleId s = 0; s < 200; ++s) {
        store.put(static_cast<SampleId>(t * 1000 + s), make_sample_payload(s, 64));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(store.size(), 800U);
}

TEST(KvStore, ServesAsExecutorRemoteTier) {
  auto preset = pipeline::preset_imagenet1k_single_node(4000.0);
  preset.epochs = 1;
  preset.cluster.nodes = 2;
  preset.cluster.gpus_per_node = 2;
  preset.cluster.cpu_threads = 8;
  preset.batch_size = 4;
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());

  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = 2;
  sampler_config.gpus_per_node = 2;
  sampler_config.batch_size = 4;
  sampler_config.seed = preset.seed;
  const data::EpochSampler sampler(sampler_config);

  cache::KvStore kv(8);
  // Pre-publish half the dataset, as another node's earlier run would.
  for (SampleId s = 0; s < catalog.size(); s += 2) {
    kv.put(s, make_sample_payload(s, catalog.sample_bytes(s)));
  }

  ExecutorConfig config;
  config.node = 0;
  PlanExecutor executor(config, catalog, sampler, planned.plan);
  // Remote-eligible requests: KV hits are served from the store; KV misses
  // go straight to the PFS (no directory is wired in, and peer routing is
  // directory-or-nothing — no manager needed at all for a pure KV tier).
  executor.set_kv_store(&kv);
  const auto report = executor.run();
  EXPECT_TRUE(report.clean());
  std::uint64_t remote = 0;
  for (const auto& iteration : report.iterations) remote += iteration.remote_fetches;
  EXPECT_GT(remote, 0U);  // KV-store hits count as remote-tier service
  EXPECT_GT(kv.stats().get_hits, 0U);
  EXPECT_GT(kv.stats().puts, catalog.size() / 2);  // fetched samples published
}

}  // namespace
}  // namespace lobster::runtime

// ---- batched misses against a live holder: plan prefetches ride multi-get
// envelopes, replies stay within one arena class, and an authoritative
// not-found costs one round trip (appended coverage).

#include <array>
#include <unordered_set>

#include "common/payload_arena.hpp"
#include "runtime/local_cluster.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::runtime {
namespace {

using telemetry::SpanKind;
using telemetry::Tracer;

std::vector<telemetry::TraceEvent> recorded_spans() {
  return Tracer::instance().snapshot().spans;
}

/// Node 0 of a 2-node, 1-GPU cluster executes `iterations` iterations of
/// batch `batch`; node 1 only serves the samples in `held` through its
/// distribution manager, and the directory credits exactly those to it.
struct HolderCluster {
  HolderCluster(std::uint32_t iterations, std::uint32_t batch, Bytes sample_bytes)
      : catalog(data::DatasetSpec::uniform(2 * iterations * batch, sample_bytes), kSeed),
        sampler(sampler_config(iterations, batch)),
        plan(uniform_plan(2, 1, 1, iterations, batch, kSeed)),
        local(catalog, sampler, plan),
        holder(local.serve(1, [this](SampleId s) { return held.count(s) > 0; })) {
    ExecutorConfig config;
    config.balance.max_pool_threads = 2;
    local.execute(0, config);
  }

  /// Credits `samples` to node 1 in the directory; `serve` decides whether
  /// node 1 actually still holds them.
  void place_on_holder(const std::vector<SampleId>& samples, bool serve) {
    for (const SampleId s : samples) {
      local.directory().add(s, 1);
      if (serve) held.insert(s);
    }
  }

  /// Runs node 0's plan with the Tracer (and so its spans) armed when
  /// `spans` is set.
  ExecutionReport run(bool spans) {
    Tracer::instance().reset();
    Tracer::instance().set_enabled(spans);
    auto report = std::move(local.run()[0]);
    Tracer::instance().set_enabled(false);
    return report;
  }

  /// The span trees node 0's batches left in `spans`: one kFetch root per
  /// batch that reached a peer, the multi-get envelopes toward node 1 that
  /// hang directly under such a root, and the re-route spans (detours and
  /// PFS fallbacks) anywhere.
  struct BatchTrees {
    std::size_t roots = 0;
    std::uint64_t routed = 0;  ///< sum of root args: samples routed to peers
    std::size_t envelopes = 0;
    std::size_t reroute_spans = 0;
  };
  static BatchTrees batch_trees(const std::vector<telemetry::TraceEvent>& spans) {
    BatchTrees trees;
    std::unordered_set<std::uint64_t> roots;
    for (const auto& span : spans) {
      if (span.kind == SpanKind::kFetch && span.parent_span_id == 0) {
        roots.insert(span.span_id);
        ++trees.roots;
        trees.routed += span.arg;
      }
      if (span.kind == SpanKind::kDetour || span.kind == SpanKind::kPfsFallback) {
        ++trees.reroute_spans;
      }
    }
    for (const auto& span : spans) {
      if (span.kind == SpanKind::kMultiGet && span.arg == 1 &&
          roots.count(span.parent_span_id) > 0) {
        ++trees.envelopes;
      }
    }
    return trees;
  }

  static constexpr std::uint64_t kSeed = 5;

  static data::SamplerConfig sampler_config(std::uint32_t iterations, std::uint32_t batch) {
    data::SamplerConfig config;
    config.num_samples = 2 * iterations * batch;
    config.nodes = 2;
    config.gpus_per_node = 1;
    config.batch_size = batch;
    config.seed = kSeed;
    return config;
  }

  data::SampleCatalog catalog;
  data::EpochSampler sampler;
  Plan plan;
  std::unordered_set<SampleId> held;
  LocalCluster local;
  DistributionManager& holder;
};

TEST(BatchedPrefetch, PlanPrefetchesGoOutAsMultiGetChunks) {
  // Iteration 0 prefetches node 0's iteration-1 minibatch, all resident on
  // node 1: 80 samples = chunks of 32 + 32 + 16. Iteration 0's own demand is
  // credited to nobody, so it reads the PFS and never touches node 1.
  constexpr std::uint32_t kPrefetches = 80;
  HolderCluster cluster(2, kPrefetches, 256);
  const auto prefetched = cluster.sampler.minibatch(0, 1, 0, 0);
  ASSERT_EQ(prefetched.size(), kPrefetches);
  cluster.plan.iterations[0].nodes[0].prefetches = prefetched;
  cluster.place_on_holder(prefetched, /*serve=*/true);

  const auto report = cluster.run(/*spans=*/true);
  const auto trees = HolderCluster::batch_trees(recorded_spans());
  Tracer::instance().reset();

  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.iterations.size(), 2U);
  EXPECT_EQ(report.iterations[0].prefetch_requests, kPrefetches);
  EXPECT_EQ(cluster.holder.served_requests(), kPrefetches);
  // Every prefetched sample landed before iteration 1's drain.
  EXPECT_EQ(report.iterations[1].local_hits, kPrefetches);
  EXPECT_EQ(report.iterations[1].remote_fetches + report.iterations[1].pfs_fetches, 0U);

  // One multi-get envelope per 32-sample chunk, each under its chunk's one
  // kFetch root; the roots cover every prefetch and nothing re-routed.
  EXPECT_EQ(trees.envelopes, (kPrefetches + 31) / 32);
  EXPECT_EQ(trees.roots, (kPrefetches + 31) / 32);
  EXPECT_EQ(trees.routed, kPrefetches);
  EXPECT_EQ(trees.reroute_spans, 0U);
}

TEST(BatchedPrefetch, HolderGroupRepliesStayWithinOneArenaClass) {
  // 12 x 100 KiB from one holder would frame a 1.2 MB reply, past the
  // arena's largest class; it must go out as several envelopes instead.
  constexpr std::uint32_t kBatch = 12;
  HolderCluster cluster(1, kBatch, 100 * 1024);
  const auto demand = cluster.sampler.minibatch(0, 0, 0, 0);
  cluster.place_on_holder(demand, /*serve=*/true);

  const auto before = PayloadArena::stats();
  const auto report = cluster.run(/*spans=*/true);
  const auto after = PayloadArena::stats();
  const auto spans = recorded_spans();
  const auto trees = HolderCluster::batch_trees(spans);
  Tracer::instance().reset();

  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.iterations[0].remote_fetches, kBatch);
  EXPECT_EQ(cluster.holder.served_requests(), kBatch);
  EXPECT_GE(trees.envelopes, 2U);
  EXPECT_EQ(after.oversize_allocs, before.oversize_allocs);

  // At most one envelope to the holder is in flight: each attempt starts
  // after the previous attempt to it ended, so in-flight reply bytes stay
  // within one arena class.
  std::vector<telemetry::TraceEvent> attempts;
  for (const auto& span : spans) {
    if (span.kind == SpanKind::kAttempt && span.arg2 == 1) attempts.push_back(span);
  }
  ASSERT_EQ(attempts.size(), trees.envelopes);
  std::sort(attempts.begin(), attempts.end(),
            [](const auto& a, const auto& b) { return a.ts_us < b.ts_us; });
  for (std::size_t i = 1; i < attempts.size(); ++i) {
    EXPECT_GE(attempts[i].ts_us, attempts[i - 1].end_us()) << "attempt " << i;
  }
}

TEST(BatchedPrefetch, NotFoundFromALiveHolderCostsOneRoundTrip) {
  // The directory routes every miss to node 1, which holds none of them.
  // Its multi-get answer is authoritative: each sample goes straight to the
  // PFS instead of asking the same holder a second time.
  constexpr std::uint32_t kBatch = 16;
  HolderCluster cluster(1, kBatch, 512);
  cluster.place_on_holder(cluster.sampler.minibatch(0, 0, 0, 0), /*serve=*/false);

  const auto report = cluster.run(/*spans=*/false);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(cluster.holder.failed_requests(), kBatch);
  EXPECT_EQ(cluster.holder.served_requests(), 0U);
  EXPECT_EQ(report.iterations[0].pfs_fetches, kBatch);
  EXPECT_EQ(report.degraded_fetches, 0U);
}

TEST(BatchedPrefetch, TracedAndUntracedRunsTakeTheSameBranches) {
  // Every minibatch mixes samples node 1 serves, samples the directory
  // credits to node 1 that it no longer holds, and samples nobody holds.
  // Arming spans must not change one routing decision; each drained chunk
  // roots one kFetch tree over exactly its peer-routed samples, and a
  // not-found sent to the PFS is no re-route.
  constexpr std::uint32_t kIterations = 2;
  constexpr std::uint32_t kBatch = 96;
  struct Outcome {
    std::vector<std::array<std::uint32_t, 4>> tiers;  // per iteration
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
  };
  const auto run = [&](bool spans) {
    HolderCluster cluster(kIterations, kBatch, 512);
    for (IterId i = 0; i < kIterations; ++i) {
      const auto batch = cluster.sampler.minibatch(0, i, 0, 0);
      for (std::size_t k = 0; k < batch.size(); ++k) {
        if (k % 3 == 2) continue;  // credited to nobody
        // k % 3 == 1: credited to node 1, which answers not found.
        cluster.place_on_holder({batch[k]}, /*serve=*/k % 3 == 0);
      }
    }
    const auto report = cluster.run(spans);
    EXPECT_TRUE(report.clean());
    Outcome outcome;
    for (const auto& iteration : report.iterations) {
      outcome.tiers.push_back({iteration.local_hits, iteration.remote_fetches,
                               iteration.pfs_fetches, iteration.degraded_fetches});
    }
    outcome.served = cluster.holder.served_requests();
    outcome.failed = cluster.holder.failed_requests();
    return outcome;
  };

  const Outcome untraced = run(/*spans=*/false);
  const Outcome traced = run(/*spans=*/true);
  const auto trees = HolderCluster::batch_trees(recorded_spans());
  Tracer::instance().reset();

  EXPECT_EQ(traced.tiers, untraced.tiers);
  EXPECT_EQ(traced.served, untraced.served);
  EXPECT_EQ(traced.failed, untraced.failed);
  EXPECT_EQ(untraced.served, std::uint64_t{kIterations} * kBatch / 3);
  EXPECT_EQ(untraced.failed, std::uint64_t{kIterations} * kBatch / 3);

  EXPECT_EQ(trees.roots, std::size_t{kIterations} * kBatch / 32);
  EXPECT_EQ(trees.envelopes, trees.roots);
  EXPECT_EQ(trees.routed, std::uint64_t{kIterations} * kBatch * 2 / 3);
  EXPECT_EQ(trees.reroute_spans, 0U);
}

// ---- LocalCluster: one wiring for N ranks.

data::EpochSampler cluster_sampler(std::uint32_t num_samples, std::uint16_t nodes,
                                   std::uint16_t gpus, std::uint32_t batch) {
  data::SamplerConfig config;
  config.num_samples = num_samples;
  config.nodes = nodes;
  config.gpus_per_node = gpus;
  config.batch_size = batch;
  config.seed = 3;
  return data::EpochSampler(config);
}

TEST(LocalCluster, ServeOnlyRanksServeEveryRemoteFetchExactlyOnce) {
  // Rank 0 executes; ranks 1 and 2 only serve, each the samples of one
  // parity, and the directory credits every sample to its server. Every
  // demand sample is a remote fetch, served once.
  constexpr std::uint32_t kIters = 4;
  constexpr std::uint32_t kBatch = 16;
  const Plan plan = uniform_plan(3, 1, 1, kIters, kBatch, 3);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(3 * kIters * kBatch, 512), 3);
  const auto sampler = cluster_sampler(catalog.size(), 3, 1, kBatch);
  FetchPolicy policy;
  policy.timeout = 5.0;  // a sanitizer-slowed serve must not time out and be re-served
  LocalCluster cluster(catalog, sampler, plan, policy);
  ExecutorConfig config;
  config.balance.max_pool_threads = 2;
  cluster.execute(0, config);
  for (comm::Rank r = 1; r <= 2; ++r) {
    cluster.serve(r, [r](SampleId s) { return s % 2 == r - 1U; });
  }
  for (SampleId s = 0; s < catalog.size(); ++s) {
    cluster.directory().add(s, static_cast<NodeId>(1 + s % 2));
  }

  const auto reports = cluster.run();
  ASSERT_EQ(reports.size(), 3U);
  const ExecutionReport& report = reports[0];
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.samples_delivered, std::uint64_t{kIters} * kBatch);
  std::uint64_t remote = 0;
  for (const auto& iteration : report.iterations) remote += iteration.remote_fetches;
  EXPECT_EQ(remote, report.samples_delivered);
  EXPECT_GT(cluster.manager(1).served_requests(), 0U);
  EXPECT_GT(cluster.manager(2).served_requests(), 0U);
  EXPECT_EQ(cluster.manager(1).served_requests() + cluster.manager(2).served_requests(), remote);
  EXPECT_TRUE(reports[1].iterations.empty());
  EXPECT_TRUE(reports[2].iterations.empty());
}

TEST(LocalCluster, TwoExecutingRanksEachDeliverTheirPlannedMinibatches) {
  // The offline/online pipeline's shape: both ranks execute, the directory
  // credits each sample to its epoch-0 shard, and epoch 1's reshuffle sends
  // misses to the peer's cache.
  constexpr std::uint32_t kIters = 4;
  constexpr std::uint32_t kBatch = 8;
  constexpr std::uint16_t kGpus = 2;
  const Plan plan = uniform_plan(2, kGpus, 2, kIters, kBatch, 3);
  const data::SampleCatalog catalog(
      data::DatasetSpec::uniform(2 * kGpus * kIters * kBatch, 512), 3);
  const auto sampler = cluster_sampler(catalog.size(), 2, kGpus, kBatch);
  LocalCluster cluster(catalog, sampler, plan);
  for (NodeId n = 0; n < 2; ++n) {
    for (std::uint32_t h = 0; h < kIters; ++h) {
      for (const SampleId s : sampler.node_batch(0, h, n)) cluster.directory().add(s, n);
    }
    ExecutorConfig config;
    config.balance.max_pool_threads = 2;
    cluster.execute(n, config);
  }

  const auto reports = cluster.run();
  ASSERT_EQ(reports.size(), 2U);
  for (NodeId n = 0; n < 2; ++n) {
    SCOPED_TRACE(n);
    std::uint64_t planned = 0;
    for (std::uint32_t epoch = 0; epoch < 2; ++epoch) {
      for (std::uint32_t h = 0; h < kIters; ++h) {
        for (GpuId g = 0; g < kGpus; ++g) planned += sampler.minibatch(epoch, h, n, g).size();
      }
    }
    EXPECT_TRUE(reports[n].clean());
    EXPECT_EQ(reports[n].samples_delivered, planned);
    EXPECT_EQ(reports[n].iterations.size(), plan.total_iterations());
  }
}

TEST(LocalCluster, RunRethrowsARanksExceptionAfterEveryRankJoined) {
  // Rank 1's hook throws at iteration 2 while rank 0, paced by its own
  // hook, is still running. run() must wait for rank 0's last iteration
  // before it rethrows, and destruction must stop the managers.
  constexpr std::uint32_t kIters = 4;
  const Plan plan = uniform_plan(2, 1, 1, kIters, 4, 3);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(2 * kIters * 4, 256), 3);
  const auto sampler = cluster_sampler(catalog.size(), 2, 1, 4);
  std::atomic<IterId> rank0_last{0};
  {
    LocalCluster cluster(catalog, sampler, plan);
    ExecutorConfig paced;
    paced.balance.max_pool_threads = 1;
    paced.iteration_hook = [&rank0_last](IterId iter, const core::IterationFeedback&,
                                         core::RebalancePlan&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      rank0_last = iter;
    };
    cluster.execute(0, paced);
    ExecutorConfig failing;
    failing.balance.max_pool_threads = 1;
    failing.iteration_hook = [](IterId iter, const core::IterationFeedback&,
                                core::RebalancePlan&) {
      if (iter == 2) throw std::runtime_error("hook failed at iteration 2");
    };
    cluster.execute(1, failing);

    try {
      (void)cluster.run();
      ADD_FAILURE() << "run() swallowed the rank's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "hook failed at iteration 2");
    }
    EXPECT_EQ(rank0_last.load(), kIters - 1);
    EXPECT_THROW((void)cluster.run(), std::logic_error);
  }
}

}  // namespace
}  // namespace lobster::runtime
