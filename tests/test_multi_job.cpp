// Shared-dataset multi-job training: the merged oracle and K jobs through
// the training simulator (the §2 generality scenario).
#include <gtest/gtest.h>

#include "data/oracle.hpp"
#include "data/sampler.hpp"
#include "pipeline/simulator.hpp"

namespace lobster::data {
namespace {

SamplerConfig oracle_config(std::uint64_t seed) {
  SamplerConfig config;
  config.num_samples = 256;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.batch_size = 8;
  config.seed = seed;
  return config;
}

struct MergedOracleFixture : public ::testing::Test {
  MergedOracleFixture()
      : sampler_a(oracle_config(1)),
        sampler_b(oracle_config(2)),
        oracle_a(sampler_a, 2),
        oracle_b(sampler_b, 2),
        merged({&oracle_a, &oracle_b}) {}

  EpochSampler sampler_a;
  EpochSampler sampler_b;
  FutureAccessOracle oracle_a;
  FutureAccessOracle oracle_b;
  MergedAccessOracle merged;
};

TEST_F(MergedOracleFixture, RejectsEmptyAndNullMembers) {
  EXPECT_THROW(MergedAccessOracle({}), std::invalid_argument);
  EXPECT_THROW(MergedAccessOracle({&oracle_a, nullptr}), std::invalid_argument);
}

TEST_F(MergedOracleFixture, NextAccessIsEarliestAcrossJobs) {
  for (SampleId s = 0; s < 256; s += 5) {
    const auto a = oracle_a.next_access(s, 0);
    const auto b = oracle_b.next_access(s, 0);
    const auto m = merged.next_access(s, 0);
    if (!a && !b) {
      EXPECT_FALSE(m.has_value());
      continue;
    }
    ASSERT_TRUE(m.has_value());
    IterId expected = kNeverIter;
    if (a) expected = std::min(expected, a->iter);
    if (b) expected = std::min(expected, b->iter);
    EXPECT_EQ(m->iter, expected);
  }
}

TEST_F(MergedOracleFixture, RemainingUsesSumAcrossJobs) {
  for (SampleId s = 0; s < 256; s += 9) {
    for (NodeId n = 0; n < 2; ++n) {
      EXPECT_EQ(merged.remaining_uses_on_node(s, n, 0),
                oracle_a.remaining_uses_on_node(s, n, 0) +
                    oracle_b.remaining_uses_on_node(s, n, 0));
    }
  }
}

TEST_F(MergedOracleFixture, NeededByOtherNodeIsAnyJob) {
  for (SampleId s = 0; s < 256; s += 7) {
    EXPECT_EQ(merged.needed_by_other_node(s, 0, 0),
              oracle_a.needed_by_other_node(s, 0, 0) || oracle_b.needed_by_other_node(s, 0, 0));
  }
}

TEST_F(MergedOracleFixture, ReuseDistanceIsMinAcrossJobs) {
  for (SampleId s = 0; s < 256; s += 11) {
    const IterId a = oracle_a.reuse_distance_on_node(s, 1, 2);
    const IterId b = oracle_b.reuse_distance_on_node(s, 1, 2);
    EXPECT_EQ(merged.reuse_distance_on_node(s, 1, 2), std::min(a, b));
  }
}

TEST_F(MergedOracleFixture, SingleMemberIsTransparent) {
  const MergedAccessOracle solo({&oracle_a});
  for (SampleId s = 0; s < 64; ++s) {
    EXPECT_EQ(solo.reuse_distance_on_node(s, 0, 0), oracle_a.reuse_distance_on_node(s, 0, 0));
  }
}

}  // namespace
}  // namespace lobster::data

namespace lobster::pipeline {
namespace {

SimulationConfig small_config(std::size_t job_count) {
  SimulationConfig config;
  config.preset = preset_imagenet1k_single_node(512.0);
  config.preset.epochs = 2;
  config.strategy = baselines::LoaderStrategy::lobster();
  for (std::size_t j = 0; j < job_count; ++j) {
    config.job_models.push_back(j % 2 == 0 ? "resnet50" : "shufflenet");
  }
  return config;
}

SimulationResult run(SimulationConfig config) {
  TrainingSimulator simulator(std::move(config));
  return simulator.run();
}

std::vector<const RunMetrics*> every_job(const SimulationResult& result) {
  std::vector<const RunMetrics*> jobs = {&result.metrics};
  for (const auto& metrics : result.other_job_metrics) jobs.push_back(&metrics);
  return jobs;
}

Seconds total_time(const SimulationResult& result) {
  Seconds total = 0.0;
  for (const auto* metrics : every_job(result)) total += metrics->total_time();
  return total;
}

TEST(MultiJob, RejectsEmptyInput) {
  SimulationConfig unnamed = small_config(2);
  unnamed.job_models[1].clear();
  EXPECT_THROW(TrainingSimulator{unnamed}, std::invalid_argument);
  SimulationConfig no_epochs = small_config(2);
  no_epochs.preset.epochs = 0;
  EXPECT_THROW(TrainingSimulator{no_epochs}, std::invalid_argument);
}

TEST(MultiJob, EveryJobCompletesEveryIteration) {
  const auto config = small_config(2);
  const auto result = run(config);
  ASSERT_EQ(result.other_job_metrics.size(), 1U);
  for (const auto* metrics : every_job(result)) {
    EXPECT_EQ(metrics->iterations(),
              static_cast<std::uint64_t>(config.preset.epochs) * result.iterations_per_epoch);
  }
  // Combined accesses: jobs * epochs * I * gpus * batch.
  const std::uint64_t expected = 2ULL * config.preset.epochs * result.iterations_per_epoch *
                                 config.preset.cluster.total_gpus() *
                                 config.preset.batch_size;
  const auto& stats = result.metrics.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, expected);
}

TEST(MultiJob, Deterministic) {
  const auto a = run(small_config(2));
  const auto b = run(small_config(2));
  EXPECT_EQ(total_time(a), total_time(b));
  EXPECT_EQ(a.metrics.cache_stats().hits, b.metrics.cache_stats().hits);
}

TEST(MultiJob, SingleJobMatchesSharedCacheExpectations) {
  // One job through the multi-job path must behave like a normal training
  // run: nonzero hits after warm-up, every access accounted.
  const auto result = run(small_config(1));
  EXPECT_TRUE(result.other_job_metrics.empty());
  EXPECT_GT(result.metrics.hit_ratio(), 0.1);
}

TEST(MultiJob, ExplicitSingleJobEqualsDefaultRun) {
  auto config = small_config(0);
  const auto default_run = run(config);
  config.job_models = {config.preset.model};
  const auto explicit_run = run(config);
  EXPECT_EQ(explicit_run.metrics.total_time(), default_run.metrics.total_time());
  EXPECT_EQ(explicit_run.metrics.cache_stats().hits, default_run.metrics.cache_stats().hits);
  EXPECT_EQ(explicit_run.metrics.cache_stats().misses, default_run.metrics.cache_stats().misses);
  EXPECT_EQ(explicit_run.metrics.imbalanced_per_epoch(),
            default_run.metrics.imbalanced_per_epoch());
  EXPECT_EQ(explicit_run.metrics.batch_times().values(),
            default_run.metrics.batch_times().values());
  EXPECT_EQ(explicit_run.mean_load_threads, default_run.mean_load_threads);
  EXPECT_EQ(explicit_run.samples_per_second, default_run.samples_per_second);
}

TEST(MultiJob, SameModelJobsDrawIndependentNoise) {
  // Two resnet50 jobs: every random draw is keyed by the scheduling slot, so
  // the jobs share no I/O noise and no trainer jitter.
  auto config = small_config(0);
  config.job_models = {"resnet50", "resnet50"};
  config.detail_epoch_hi = config.preset.epochs;
  const auto result = run(config);
  ASSERT_EQ(result.other_job_metrics.size(), 1U);
  const auto& first = result.metrics.details();
  const auto& second = result.other_job_metrics.front().details();
  ASSERT_EQ(first.size(), second.size());
  bool load_differs = false;
  bool train_differs = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    for (std::size_t g = 0; g < first[i].gpus.size(); ++g) {
      load_differs |= first[i].gpus[g].load != second[i].gpus[g].load;
      train_differs |= first[i].gpus[g].train != second[i].gpus[g].train;
    }
  }
  EXPECT_TRUE(load_differs);
  EXPECT_TRUE(train_differs);
}

TEST(MultiJob, RecordingRejectsSeveralJobs) {
  runtime::Plan plan;
  auto plan_config = small_config(2);
  plan_config.record_plan = &plan;
  EXPECT_THROW(TrainingSimulator{plan_config}, std::invalid_argument);
  data::AccessTrace trace;
  auto trace_config = small_config(2);
  trace_config.record_trace = &trace;
  EXPECT_THROW(TrainingSimulator{trace_config}, std::invalid_argument);
}

TEST(MultiJob, SharedCacheBeatsPrivateHalves) {
  // Two jobs sharing the full cache should see a better combined hit ratio
  // than one job confined to half the cache (the sharing benefit the
  // DIESEL/Quiver line of work reports).
  const auto shared = run(small_config(2));

  auto half = small_config(1);
  half.preset.cluster.cache_bytes /= 2;
  const auto private_half = run(half);
  EXPECT_GT(shared.metrics.hit_ratio() + 0.05, private_half.metrics.hit_ratio());
}

TEST(MultiJob, LobsterSharedCacheBeatsLru) {
  auto lobster_config = small_config(2);
  auto lru_config = lobster_config;
  lru_config.strategy.eviction_policy = "lru";
  lru_config.strategy.reuse_sweep = false;
  const auto lobster = run(lobster_config);
  const auto lru = run(lru_config);
  EXPECT_GT(lobster.metrics.hit_ratio(), lru.metrics.hit_ratio());
}

}  // namespace
}  // namespace lobster::pipeline
