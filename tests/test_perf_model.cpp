// Holistic performance model (Eq. 1–3): composition, signs, monotonicity.
#include <gtest/gtest.h>

#include "core/perf_model.hpp"
#include "core/preproc_model.hpp"
#include "storage/hierarchy.hpp"

namespace lobster::core {
namespace {

struct PerfModelFixture : public ::testing::Test {
  PerfModelFixture()
      : storage(make_storage()),
        portfolio(PreprocGroundTruth(), {100'000}, 16, 3, 1),
        model(storage, portfolio, /*t_train=*/13e-3) {}

  static storage::StorageModel make_storage() {
    storage::StorageModel::Params params;
    params.remote_latency = 0.0;
    params.pfs_latency = 0.0;
    return storage::StorageModel(params);
  }

  static GpuDemand demand_of(Bytes local, Bytes remote, Bytes pfs, std::uint32_t samples = 32) {
    GpuDemand demand;
    demand.bytes.local = local;
    demand.bytes.remote = remote;
    demand.bytes.pfs = pfs;
    demand.samples = samples;
    demand.pending_requests = remote + pfs;
    return demand;
  }

  storage::StorageModel storage;
  PreprocModelPortfolio portfolio;
  PerfModel model;
};

TEST_F(PerfModelFixture, RejectsNonPositiveTrainTime) {
  EXPECT_THROW(PerfModel(storage, portfolio, 0.0), std::invalid_argument);
}

TEST_F(PerfModelFixture, LoadTimeMatchesStorageModel) {
  const auto demand = demand_of(1'000'000, 500'000, 100'000);
  const Seconds direct =
      storage.load_time(demand.bytes, storage::ThreadAlloc::uniform(4.0));
  EXPECT_DOUBLE_EQ(model.load_time(demand, 4.0), direct);
}

TEST_F(PerfModelFixture, PreprocTimeZeroForEmptyBatch) {
  GpuDemand empty;
  EXPECT_EQ(model.preproc_time(empty, 6.0), 0.0);
}

TEST_F(PerfModelFixture, TDifIsLoadPlusPreprocMinusTrain) {
  const auto demand = demand_of(3'000'000, 0, 0);
  const Seconds t_dif = model.t_dif(demand, 4.0, 6.0);
  const Seconds expected =
      model.load_time(demand, 4.0) + model.preproc_time(demand, 6.0) - 13e-3;
  EXPECT_DOUBLE_EQ(t_dif, expected);
}

TEST_F(PerfModelFixture, MoreLoadThreadsShrinkTDifUpToKnee) {
  const auto demand = demand_of(0, 0, 3'000'000);
  const std::uint32_t knee = storage.params().pfs.knee_threads();
  Seconds prev = 1e9;
  for (std::uint32_t threads = 1; threads <= knee; ++threads) {
    const Seconds dif = model.t_dif(demand, threads, 6.0);
    EXPECT_LE(dif, prev + 1e-12);
    prev = dif;
  }
  // Past the knee the curve declines, so T_dif may *rise* slightly — the
  // very effect that makes blindly adding threads counterproductive.
  const Seconds at_knee = model.t_dif(demand, knee, 6.0);
  const Seconds way_past = model.t_dif(demand, knee * 4, 6.0);
  EXPECT_GE(way_past, at_knee - 1e-9);
}

TEST_F(PerfModelFixture, GpuIterationTimeIsPipelinedMax) {
  // Tiny batch: pipeline hides under training.
  const auto small = demand_of(10'000, 0, 0, 1);
  EXPECT_DOUBLE_EQ(model.gpu_iteration_time(small, 8.0, 6.0), 13e-3);
  // Huge PFS batch: pipeline dominates.
  const auto big = demand_of(0, 0, 50'000'000, 32);
  EXPECT_GT(model.gpu_iteration_time(big, 1.0, 6.0), 13e-3);
}

TEST_F(PerfModelFixture, NodeImbalanceIsMaxMinusMin) {
  const std::vector<GpuDemand> demands = {demand_of(100'000, 0, 0),
                                          demand_of(0, 0, 10'000'000)};
  const std::vector<double> threads = {2.0, 2.0};
  const Seconds gap = model.node_imbalance(demands, threads, 6.0);
  const Seconds fast = model.gpu_iteration_time(demands[0], 2.0, 6.0);
  const Seconds slow = model.gpu_iteration_time(demands[1], 2.0, 6.0);
  EXPECT_DOUBLE_EQ(gap, slow - fast);
  EXPECT_GT(gap, 0.0);
}

TEST_F(PerfModelFixture, NodeImbalanceValidatesArguments) {
  const std::vector<GpuDemand> demands = {demand_of(1, 0, 0)};
  EXPECT_THROW(model.node_imbalance(demands, {}, 6.0), std::invalid_argument);
  EXPECT_THROW(model.node_imbalance({}, {}, 6.0), std::invalid_argument);
}

TEST_F(PerfModelFixture, ContentionRaisesLoadTime) {
  const auto demand = demand_of(0, 0, 1'000'000);
  storage::Contention light;
  storage::Contention heavy;
  heavy.pfs_readers_node = 8;
  heavy.pfs_readers_cluster = 64;
  EXPECT_GT(model.load_time(demand, 2.0, heavy), model.load_time(demand, 2.0, light));
}

// ---- Eq. 1 at flat rates: the executor's and the cluster's virtual time.

TEST(FlatStageTimes, RatesAreTheSanctionedValues) {
  EXPECT_EQ(kFlatRates.local_bps, 10e9);
  EXPECT_EQ(kFlatRates.remote_bps, 2.0e9);
  EXPECT_EQ(kFlatRates.pfs_bps, 0.8e9);
  EXPECT_EQ(kFlatRates.preproc_bps, 0.9e9);
}

TEST(FlatStageTimes, MatchesHandComputedTimesUnderThreadsAndThrottle) {
  // One second per tier at one thread; 3 load threads at half capacity
  // read 1.5x as fast, and 2 preprocessing threads at half capacity
  // preprocess at the single-thread rate.
  const storage::TierBytes bytes{.local = 10'000'000'000, .remote = 2'000'000'000,
                                 .pfs = 800'000'000};
  const StageTimes times = flat_stage_times(bytes, kFlatRates, 3.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(times.load, 3.0 / 1.5);
  EXPECT_DOUBLE_EQ(times.preproc, 12.8e9 / 0.9e9);

  // SSD bytes are node-local: read at the local rate, and preprocessed.
  const StageTimes ssd =
      flat_stage_times(storage::TierBytes{.ssd = 5'000'000'000}, kFlatRates, 1.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(ssd.load, 0.5);
  EXPECT_DOUBLE_EQ(ssd.preproc, 5e9 / 0.9e9);
}

TEST(FlatStageTimes, UnitCallIsTheClusterRoundPriceBitForBit) {
  // The cluster prices a node's round as one sum over tier reads and
  // preprocessing, with the PFS rate split among its readers. The entry
  // point at 1, 1, 1 must reproduce that sum exactly, not approximately:
  // the cluster soaks' golden outputs depend on it.
  const storage::TierBytes cases[] = {
      {.local = 123'456'789, .remote = 98'765'431, .pfs = 1'000'003},
      {.local = 1, .remote = 3, .pfs = 7},
      {.local = 0, .remote = 999'999'937, .pfs = 0},
      {.local = 4'294'967'311, .remote = 65'537, .pfs = 2'147'483'659},
  };
  for (const std::uint32_t pfs_jobs : {1U, 3U, 7U}) {
    FlatRates rates = kFlatRates;
    rates.pfs_bps /= pfs_jobs;
    for (const auto& bytes : cases) {
      const Bytes total = bytes.local + bytes.remote + bytes.pfs;
      const double round = static_cast<double>(bytes.local) / 10e9 +
                           static_cast<double>(bytes.remote) / 2.0e9 +
                           static_cast<double>(bytes.pfs) / (0.8e9 / pfs_jobs) +
                           static_cast<double>(total) / 0.9e9;
      const StageTimes times = flat_stage_times(bytes, rates, 1.0, 1.0, 1.0);
      EXPECT_EQ(times.load + times.preproc, round) << "pfs_jobs=" << pfs_jobs;
    }
  }
}

}  // namespace
}  // namespace lobster::core
