// Failure model & degraded routing (DESIGN.md §9): fault injection at the
// bus, deadline recv, retry/backoff with a per-peer circuit breaker,
// directory down-masking, KV-store capacity overflow, the sim NIC's
// capacity scaling — and the headline acceptance run: a 4-node cluster
// surviving one node death mid-epoch with every sample still delivered and
// bounded slowdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "comm/bus.hpp"
#include "comm/fault.hpp"
#include "common/payload_arena.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"
#include "runtime/local_cluster.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/registry.hpp"

namespace lobster::runtime {
namespace {

using namespace std::chrono_literals;

// ---- Status / Result surface.

TEST(Status, DefaultIsOkAndFactoriesCarryCause) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  const Status t = Status::timeout("deadline");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.code(), StatusCode::kTimeout);
  EXPECT_EQ(t.to_string(), "timeout: deadline");
  EXPECT_EQ(Status::peer_down().code(), StatusCode::kPeerDown);
  EXPECT_EQ(Status::overflow().code(), StatusCode::kOverflow);
  // Equality compares the cause only — detail is advisory.
  EXPECT_EQ(Status::timeout("a"), Status::timeout("b"));
}

TEST(Status, ResultHoldsValueOrCause) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  EXPECT_EQ(good.value_or(0), 7);
  Result<int> bad(Status::timeout());
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(*bad, std::logic_error);
  EXPECT_THROW(Result<int>(Status{}), std::logic_error);  // ok needs a value
}

// ---- Bus-level primitives: deadline recv and fault verdicts.

TEST(FaultBus, RecvForTimesOutWithoutTraffic) {
  comm::MessageBus bus(2);
  const auto start = std::chrono::steady_clock::now();
  const auto result = bus.endpoint(0).recv_for(1, 0.05);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_GE(elapsed, 45ms);  // honoured the deadline...
  EXPECT_LT(elapsed, 2s);    // ...without hanging
}

TEST(FaultBus, DelayedMessageArrivesAfterItsLatency) {
  comm::MessageBus bus(2);
  comm::FaultPlan plan(2);
  plan.spec(0).delay_s = 0.05;
  bus.set_fault_plan(&plan);
  EXPECT_TRUE(bus.endpoint(0).send_value<int>(1, 1, 42).ok());
  // The message is in flight: invisible now, delivered once its latency
  // elapses — recv_for must wake for it before the caller's deadline.
  EXPECT_EQ(bus.endpoint(1).try_recv(1).status().code(), StatusCode::kNotFound);
  const auto result = bus.endpoint(1).recv_for(1, 5.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(comm::Endpoint::value_of<int>(*result), 42);
  EXPECT_EQ(plan.delayed_messages(), 1U);
}

TEST(FaultBus, DroppedMessagesNeverArriveButSendReportsOk) {
  comm::MessageBus bus(2);
  comm::FaultPlan plan(2);
  plan.spec(0).drop_fraction = 1.0;
  bus.set_fault_plan(&plan);
  // Fire-and-forget: the sender gets no delivery receipt, like a real NIC.
  EXPECT_TRUE(bus.endpoint(0).send_value<int>(1, 1, 1).ok());
  EXPECT_EQ(bus.endpoint(1).recv_for(1, 0.02).status().code(), StatusCode::kTimeout);
  EXPECT_EQ(plan.dropped_messages(), 1U);
}

TEST(FaultBus, KilledNodeTrafficDropsBothWaysButSelfSendsPass) {
  comm::MessageBus bus(2);
  comm::FaultPlan plan(2);
  bus.set_fault_plan(&plan);
  plan.kill(1);
  EXPECT_TRUE(plan.is_down(1));
  // To and from the dead rank: dropped.
  EXPECT_TRUE(bus.endpoint(0).send_value<int>(1, 1, 1).ok());
  EXPECT_TRUE(bus.endpoint(1).send_value<int>(0, 1, 2).ok());
  EXPECT_EQ(bus.endpoint(1).recv_for(1, 0.02).status().code(), StatusCode::kTimeout);
  EXPECT_EQ(bus.endpoint(0).recv_for(1, 0.02).status().code(), StatusCode::kTimeout);
  // Self-send on the dead rank: local delivery never crosses the fabric —
  // this is what keeps DistributionManager::stop()'s poison pill working.
  EXPECT_TRUE(bus.endpoint(1).send_value<int>(1, 9, 3).ok());
  ASSERT_TRUE(bus.endpoint(1).recv_for(9, 1.0).ok());
  EXPECT_EQ(plan.nodes_killed(), 1U);
}

TEST(FaultBus, KillAtIterationFiresOnTheIterationClock) {
  comm::FaultPlan plan(3);
  plan.spec(2).kill_at_iter = 5;
  plan.on_iteration(4);
  EXPECT_FALSE(plan.is_down(2));
  plan.on_iteration(5);
  EXPECT_TRUE(plan.is_down(2));
  plan.revive(2);
  EXPECT_FALSE(plan.is_down(2));
}

// ---- DistributionManager: timeout, retry budget, circuit breaker.

FetchPolicy tight_policy() {
  FetchPolicy policy;
  policy.timeout = 0.02;
  policy.max_retries = 2;
  policy.backoff_base = 0.002;
  policy.backoff_cap = 0.01;
  policy.breaker_threshold = 100;  // effectively off unless a test lowers it
  policy.breaker_cooldown = 0.05;
  return policy;
}

TEST(FaultFetch, RetryGivesUpAfterTheCapAgainstADeadPeer) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  fault.kill(1);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());

  const auto start = std::chrono::steady_clock::now();
  const auto result = client.fetch_remote(7, 1);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(client.retries(), 2U);   // exactly max_retries extra attempts
  EXPECT_EQ(client.timeouts(), 3U);  // every attempt timed out
  // Bounded: 3 x 20ms timeouts + 2 backoffs, nowhere near unbounded blocking.
  EXPECT_LT(elapsed, 2s);
}

TEST(FaultFetch, BreakerOpensAfterThresholdAndFailsFast) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  fault.kill(1);
  auto policy = tight_policy();
  policy.max_retries = 0;
  policy.breaker_threshold = 2;
  policy.breaker_cooldown = 60.0;  // stays open for the rest of the test
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);

  EXPECT_EQ(client.fetch_remote(1, 1).status().code(), StatusCode::kTimeout);
  EXPECT_FALSE(client.breaker_open(1));
  EXPECT_EQ(client.fetch_remote(2, 1).status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(client.breaker_open(1));
  EXPECT_EQ(client.breaker_opens(), 1U);

  // Open breaker: instant peer_down, no 20ms wait, no extra timeout.
  const auto start = std::chrono::steady_clock::now();
  const auto fast = client.fetch_remote(3, 1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(fast.status().code(), StatusCode::kPeerDown);
  EXPECT_LT(elapsed, 15ms);
  EXPECT_EQ(client.timeouts(), 2U);
}

TEST(FaultFetch, BreakerReclosesAfterPeerRecovers) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  auto policy = tight_policy();
  policy.max_retries = 0;
  policy.breaker_threshold = 1;
  policy.breaker_cooldown = 0.03;
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{64}; });
  server.start();

  fault.kill(1);
  EXPECT_EQ(client.fetch_remote(1, 1).status().code(), StatusCode::kTimeout);
  EXPECT_TRUE(client.breaker_open(1));

  fault.revive(1);
  std::this_thread::sleep_for(50ms);  // past the cooldown: half-open
  const auto probe = client.fetch_remote(2, 1);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  EXPECT_TRUE(verify_sample_payload(2, *probe));
  EXPECT_FALSE(client.breaker_open(1));  // success re-closed it
  EXPECT_EQ(client.breaker_closes(), 1U);
  server.stop();
}

TEST(FaultFetch, DeadNodesOwnServerStopsCleanly) {
  // stop() must join the server thread even after the node was killed —
  // the poison pill is a self-send and bypasses the fault plan.
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{32}; });
  server.start();
  fault.kill(1);
  server.stop();  // must not hang
}

// ---- CacheDirectory: down-mask routing and drop_node.

TEST(FaultDirectory, DownNodesAreSkippedByRoutingQueries) {
  cache::CacheDirectory directory(4);
  directory.add(5, 1);
  directory.add(5, 2);
  EXPECT_EQ(directory.peer_holder(5, 0), 1);
  directory.mark_node_down(1);
  EXPECT_TRUE(directory.node_down(1));
  EXPECT_EQ(directory.down_count(), 1U);
  EXPECT_EQ(directory.peer_holder(5, 0), 2);  // detours past the dead holder
  EXPECT_TRUE(directory.held_elsewhere(5, 0));
  EXPECT_TRUE(directory.sole_holder(5, 2));  // node 2 is the only live holder
  directory.mark_node_down(2);
  EXPECT_EQ(directory.peer_holder(5, 0), cache::CacheDirectory::kInvalidNode);
  EXPECT_FALSE(directory.held_elsewhere(5, 0));
  // Residency is unchanged underneath: revive restores routing.
  EXPECT_EQ(directory.holder_count(5), 2U);
  directory.revive_node(1);
  EXPECT_EQ(directory.peer_holder(5, 0), 1);
}

TEST(FaultDirectory, DropNodeReturnsOrphanedSamples) {
  cache::CacheDirectory directory(4);
  directory.add(1, 2);               // only on node 2 -> orphaned
  directory.add(2, 2);               // only on node 2 -> orphaned
  directory.add(3, 2);
  directory.add(3, 0);               // replicated -> survives
  directory.add(4, 1);               // elsewhere -> untouched
  auto orphaned = directory.drop_node(2);
  std::sort(orphaned.begin(), orphaned.end());
  EXPECT_EQ(orphaned, (std::vector<SampleId>{1, 2}));
  EXPECT_TRUE(directory.node_down(2));
  EXPECT_EQ(directory.holder_count(1), 0U);
  EXPECT_EQ(directory.holder_count(3), 1U);
  EXPECT_TRUE(directory.holds(3, 0));
  EXPECT_EQ(directory.tracked_samples(), 2U);
}

// ---- KvStore: typed get/put and the capacity ceiling.

TEST(FaultKvStore, PutOverflowsAtTheCapacityCeiling) {
  cache::KvStore store(4);
  store.set_capacity(256);
  EXPECT_TRUE(store.put(1, std::vector<std::byte>(200)).ok());
  const Status rejected = store.put(2, std::vector<std::byte>(100));
  EXPECT_EQ(rejected.code(), StatusCode::kOverflow);
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.stats().rejected_puts, 1U);
  // Shrinking overwrites always fit; freed space admits new entries again.
  EXPECT_TRUE(store.put(1, std::vector<std::byte>(50)).ok());
  EXPECT_TRUE(store.put(2, std::vector<std::byte>(100)).ok());
  EXPECT_EQ(store.bytes(), 150U);
}

TEST(FaultKvStore, GetReportsNotFoundAsTheCause) {
  cache::KvStore store(2);
  EXPECT_EQ(store.get(9).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.put(9, std::vector<std::byte>(16)).ok());
  const auto hit = store.get(9);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->size(), 16U);
}

// ---- sim::Resource capacity scaling (virtual-time fault analogue).

TEST(FaultSimResource, CapacityScaleStretchesAndStallsTransfers) {
  sim::Engine engine;
  sim::Resource nic(engine, "nic", 100.0);  // 100 B/s
  Seconds done_at = -1.0;
  nic.submit(100, [&](sim::JobId, Seconds t) { done_at = t; });
  // Rescale as a scheduled event so it happens at virtual t=0.2, not at
  // whatever time the engine last fired something.
  engine.schedule_at(0.2, [&] { nic.set_capacity_scale(0.5); });
  engine.run();
  // 0.2s at full rate moved 20 bytes; the remaining 80 at 50 B/s take 1.6s.
  EXPECT_NEAR(done_at, 0.2 + 80.0 / 50.0, 1e-9);

  // Scale 0 stalls: no completion event is ever scheduled.
  Seconds second_done = -1.0;
  nic.submit(50, [&](sim::JobId, Seconds t) { second_done = t; });
  nic.set_capacity_scale(0.0);
  engine.run();
  EXPECT_LT(second_done, 0.0);  // still stalled
  EXPECT_EQ(nic.active_jobs(), 1U);
  nic.set_capacity_scale(1.0);  // link restored
  engine.run();
  EXPECT_GT(second_done, 0.0);
  EXPECT_EQ(nic.active_jobs(), 0U);
}

// ---- Monitor: peer_down / retry_storm anomaly flags.

TEST(FaultMonitor, PeerDownAndRetryStormFlagsFollowCounterDeltas) {
  auto& registry = telemetry::MetricRegistry::instance();
  registry.reset();
  telemetry::MonitorConfig config;
  config.log_text = false;
  config.retry_storm_threshold = 10;
  telemetry::Monitor monitor(config);

  EXPECT_FALSE(monitor.sample_once().any_flag());

  registry.counter("comm.peer_down").add(1);
  registry.counter("comm.retries").add(50);
  const auto flagged = monitor.sample_once();
  EXPECT_TRUE(flagged.peer_down);
  EXPECT_TRUE(flagged.retry_storm);
  EXPECT_TRUE(flagged.any_flag());

  // Delta-based: the next healthy interval clears both flags.
  const auto recovered = monitor.sample_once();
  EXPECT_FALSE(recovered.peer_down);
  EXPECT_FALSE(recovered.retry_storm);
}

// ---- Acceptance: a 4-node run survives one node death mid-epoch.

data::EpochSampler fault_sampler(std::uint32_t num_samples, std::uint16_t nodes,
                                 std::uint16_t gpus, std::uint32_t batch) {
  data::SamplerConfig config;
  config.num_samples = num_samples;
  config.nodes = nodes;
  config.gpus_per_node = gpus;
  config.batch_size = batch;
  config.seed = 7;
  return data::EpochSampler(config);
}

struct FaultRunResult {
  ExecutionReport report;
  std::uint64_t reroutes = 0;
};

/// Runs node 0's plan on a `nodes`-wide cluster where every peer serves the
/// samples the directory credits to it; optionally kills `victim` at
/// iteration `kill_at`. Samples are owned by rank (s % nodes); the victim's
/// samples are additionally replicated on the highest rank so degraded
/// routing has a surviving holder to detour to.
FaultRunResult run_fault_cluster(std::uint16_t nodes, std::uint32_t iters,
                                 comm::Rank victim, IterId kill_at, bool inject) {
  constexpr std::uint16_t kGpus = 2;
  constexpr std::uint32_t kBatch = 8;
  const Plan plan = uniform_plan(nodes, kGpus, 1, iters, kBatch, 7);
  const data::SampleCatalog catalog(
      data::DatasetSpec::uniform(nodes * iters * kGpus * kBatch, 512), plan.seed);
  const auto sampler = fault_sampler(catalog.size(), nodes, kGpus, kBatch);
  const std::uint16_t backup = static_cast<std::uint16_t>(nodes - 1);

  comm::FaultPlan fault(nodes);
  if (inject) fault.spec(victim).kill_at_iter = kill_at;
  FetchPolicy policy = tight_policy();
  policy.max_retries = 1;
  policy.breaker_threshold = 1;   // first timeout declares the peer dead
  policy.breaker_cooldown = 60.0; // no half-open probes during the run
  LocalCluster cluster(catalog, sampler, plan, policy);
  cluster.bus().set_fault_plan(&fault);
  for (SampleId s = 0; s < catalog.size(); ++s) {
    const auto owner = static_cast<std::uint16_t>(s % nodes);
    cluster.directory().add(s, owner);
    if (owner == victim) cluster.directory().add(s, backup);
  }

  ExecutorConfig config;
  config.balance.max_pool_threads = 4;
  config.iteration_hook = [&fault](IterId iter, const core::IterationFeedback&,
                                   core::RebalancePlan&) { fault.on_iteration(iter); };
  cluster.execute(0, config);
  for (std::uint16_t r = 1; r < nodes; ++r) {
    cluster.serve(r, [r, nodes, victim, backup](SampleId s) {
      const auto owner = static_cast<std::uint16_t>(s % nodes);
      if (owner == r) return true;
      return r == backup && owner == victim;  // replica of the victim's set
    });
  }

  FaultRunResult result;
  result.report = std::move(cluster.run()[0]);
  result.reroutes = cluster.manager(0).timeouts();
  return result;
}

TEST(FaultAcceptance, FourNodeRunSurvivesNodeDeathMidEpoch) {
  constexpr std::uint16_t kNodes = 4;
  constexpr std::uint32_t kIters = 6;
  constexpr comm::Rank kVictim = 2;

  const auto baseline = run_fault_cluster(kNodes, kIters, kVictim, 0, /*inject=*/false);
  ASSERT_TRUE(baseline.report.clean());
  EXPECT_EQ(baseline.report.degraded_fetches, 0U);

  const auto faulted = run_fault_cluster(kNodes, kIters, kVictim, kIters / 2, /*inject=*/true);

  // Every sample still delivered, verified, exactly once.
  EXPECT_EQ(faulted.report.payload_failures, 0U);
  EXPECT_EQ(faulted.report.lost_deliveries, 0U);
  EXPECT_EQ(faulted.report.duplicate_deliveries, 0U);
  EXPECT_TRUE(faulted.report.clean());
  EXPECT_EQ(faulted.report.samples_delivered, baseline.report.samples_delivered);

  // The death was noticed and routed around, not absorbed silently.
  EXPECT_GT(faulted.report.degraded_fetches, 0U);

  // Bounded slowdown: the detour (replica or PFS) costs at most 2x the
  // fault-free run in modeled time.
  EXPECT_GT(faulted.report.virtual_total, 0.0);
  EXPECT_LE(faulted.report.virtual_total, 2.0 * baseline.report.virtual_total);

  // Degraded iterations still recorded per-iteration stats.
  std::uint64_t degraded = 0;
  for (const auto& iteration : faulted.report.iterations) degraded += iteration.degraded_fetches;
  EXPECT_EQ(degraded, faulted.report.degraded_fetches);
}

TEST(FaultAcceptance, DeadHolderCostsOneRetryBudgetPerEnvelope) {
  // One chunk of misses, all credited to a dead rank 1, with the breaker
  // disabled so nothing fast-fails. The chunk's one envelope pays the retry
  // budget once; its failure marks rank 1 down and every sample, with no
  // holder left, goes to the PFS without asking rank 1 again.
  constexpr std::uint32_t kBatch = 8;
  const Plan plan = uniform_plan(2, 1, 1, 1, kBatch, 7);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(2 * kBatch, 512), plan.seed);
  const auto sampler = fault_sampler(catalog.size(), 2, 1, kBatch);
  comm::FaultPlan fault(2);
  fault.kill(1);
  FetchPolicy policy = tight_policy();
  policy.breaker_threshold = 0;  // never opens
  LocalCluster cluster(catalog, sampler, plan, policy);
  cluster.bus().set_fault_plan(&fault);
  for (SampleId s = 0; s < catalog.size(); ++s) cluster.directory().add(s, 1);

  ExecutorConfig config;
  config.balance.max_pool_threads = 2;
  cluster.execute(0, config);
  cluster.serve(1, [](SampleId) { return true; });
  const auto report = std::move(cluster.run()[0]);
  const DistributionManager& client = cluster.manager(0);

  EXPECT_TRUE(report.clean());
  EXPECT_EQ(client.timeouts(), 1U + policy.max_retries);
  EXPECT_FALSE(client.breaker_open(1));
  EXPECT_TRUE(cluster.directory().node_down(1));
  ASSERT_EQ(report.iterations.size(), 1U);
  EXPECT_EQ(report.iterations[0].pfs_fetches, kBatch);
  EXPECT_EQ(report.degraded_fetches, kBatch);
}

// ---- Batched multi-get (DistributionManager::fetch_remote_many).

TEST(MultiGetFetch, BatchRoundTripDeliversEveryVerifiedPayload) {
  comm::MessageBus bus(2);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId s) { return Bytes{64 + (s % 5) * 96}; });
  server.start();

  const std::vector<SampleId> samples{3, 7, 11, 42};
  const auto results = client.fetch_remote_many(1, samples, /*iter=*/0);
  ASSERT_EQ(results.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().to_string();
    const auto& payload = *results[i];
    ASSERT_TRUE(payload.reply() != nullptr);
    EXPECT_EQ(payload.size(), 64 + (samples[i] % 5) * 96);
    EXPECT_TRUE(verify_sample_payload(samples[i], payload.data(), payload.size()));
  }
  // served_requests counts samples (as in the single path): all four rode
  // one envelope, so the round-trip burned zero retries/timeouts.
  EXPECT_EQ(server.served_requests(), samples.size());
  EXPECT_EQ(client.timeouts(), 0U);
  EXPECT_EQ(client.retries(), 0U);
  server.stop();
}

TEST(MultiGetFetch, PerSampleNotFoundLeavesTheRestOk) {
  comm::MessageBus bus(2);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());
  DistributionManager server(bus.endpoint(1),
                             [](SampleId s) { return s % 2 == 1; },  // evens evicted
                             [](SampleId) { return Bytes{128}; });
  server.start();

  const auto results = client.fetch_remote_many(1, {1, 2, 3, 4}, /*iter=*/0);
  ASSERT_EQ(results.size(), 4U);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(results[3].status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(client.breaker_open(1));  // an answered not-found is healthy
  server.stop();
}

TEST(MultiGetFetch, DeadPeerTimesOutTheWholeEnvelope) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  auto policy = tight_policy();
  policy.max_retries = 1;
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  fault.kill(1);

  const auto results = client.fetch_remote_many(1, {5, 6, 7}, /*iter=*/2);
  ASSERT_EQ(results.size(), 3U);
  for (const auto& result : results) {
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  }
  // One timeout per failed envelope attempt — NOT one per sample.
  EXPECT_EQ(client.timeouts(), 1U + policy.max_retries);
  EXPECT_EQ(client.retries(), policy.max_retries);
}

TEST(MultiGetFetch, OpenBreakerFailsTheWholeBatchFast) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  auto policy = tight_policy();
  policy.max_retries = 0;
  policy.breaker_threshold = 1;
  policy.breaker_cooldown = 60.0;
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  fault.kill(1);
  (void)client.fetch_remote_many(1, {1, 2}, 0);  // opens the breaker
  ASSERT_TRUE(client.breaker_open(1));

  const auto start = std::chrono::steady_clock::now();
  const auto results = client.fetch_remote_many(1, {3, 4, 5}, 0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(results.size(), 3U);
  for (const auto& result : results) {
    EXPECT_EQ(result.status().code(), StatusCode::kPeerDown);
  }
  EXPECT_LT(elapsed, 10ms);  // fast-fail: no waiting at all
}

TEST(MultiGetFetch, CorruptedReplyQuarantinesAffectedSamplesAndStrikesOnce) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  auto policy = tight_policy();
  policy.max_retries = 0;
  policy.corrupt_strike_threshold = 100;  // observe strikes without opening
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{512}; });
  server.start();
  fault.spec(1).corrupt_fraction = 1.0;  // every reply envelope is damaged

  const std::vector<SampleId> samples{10, 20, 30, 40};
  const auto results = client.fetch_remote_many(1, samples, /*iter=*/0);
  ASSERT_EQ(results.size(), 4U);
  std::size_t corrupt = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      EXPECT_EQ(results[i].status().code(), StatusCode::kCorrupt);
      ++corrupt;
    } else {
      // Samples the bit-flips missed must still verify end to end.
      EXPECT_TRUE(verify_sample_payload(samples[i], results[i]->data(), results[i]->size()));
    }
  }
  EXPECT_GT(corrupt, 0U);                   // the damage was detected...
  EXPECT_EQ(client.corrupt_replies(), 1U);  // ...as ONE strike for the reply
  EXPECT_FALSE(client.breaker_open(1));
  server.stop();
}

TEST(MultiGetFetch, CallerWorkBetweenPostAndCollectRunsOnce) {
  comm::MessageBus bus(3);
  comm::FaultPlan fault(3);
  bus.set_fault_plan(&fault);
  auto policy = tight_policy();
  policy.max_retries = 1;
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{256}; });
  server.start();

  int calls = 0;
  const auto caller_work = [&calls] { ++calls; };
  const std::vector<SampleId> live{1, 2, 3};
  auto posted = client.post(1, live, 0);
  caller_work();
  const auto results = client.collect(std::move(posted));
  EXPECT_EQ(calls, 1);
  for (const auto& result : results) EXPECT_TRUE(result.ok());

  // A dead holder: post returns without waiting, and every retry runs
  // inside collect, not again around the caller's work.
  fault.kill(2);
  calls = 0;
  const std::vector<SampleId> lost{4, 5};
  auto dead_post = client.post(2, lost, 0);
  caller_work();
  EXPECT_EQ(client.timeouts(), 0U);
  EXPECT_EQ(client.retries(), 0U);
  const auto dead = client.collect(std::move(dead_post));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(dead[0].status().code(), StatusCode::kTimeout);
  EXPECT_EQ(client.retries(), policy.max_retries);
  server.stop();
}

TEST(MultiGetFetch, VerifiedRepliesAreNotCopied) {
  comm::MessageBus bus(2);
  FetchPolicy policy;
  policy.timeout = 5.0;  // a retry would add acquires of its own
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{4096}; });
  server.start();
  const auto acquires = [] {
    const PayloadArena::Stats stats = PayloadArena::stats();
    return stats.tls_hits + stats.pool_hits + stats.fresh_allocs + stats.oversize_allocs;
  };

  const std::vector<SampleId> samples{21, 22, 23, 24, 25, 26, 27, 28};
  const std::uint64_t before = acquires();
  const auto results = client.fetch_remote_many(1, samples, /*iter=*/0);
  const std::uint64_t after = acquires();
  // The request wire and the reply, nothing per sample: every verified
  // result is a view of the one retained reply.
  EXPECT_EQ(after - before, 2U);
  EXPECT_EQ(client.retries(), 0U);
  ASSERT_EQ(results.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().to_string();
    EXPECT_EQ(results[i]->reply(), results.front()->reply());
    EXPECT_TRUE(verify_sample_payload(samples[i], results[i]->data(), results[i]->size()));
  }
  server.stop();
}

TEST(MultiGetFetch, EmptyBatchIsANoOp) {
  comm::MessageBus bus(2);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());
  EXPECT_TRUE(client.fetch_remote_many(1, {}, 0).empty());
  EXPECT_EQ(client.timeouts(), 0U);
}

// ---- The sample wire decoder against hand-written peers.

// Wire constants of the sample protocol: the request tag, and the multi-get
// sentinel id that heads every sample request and reply.
constexpr comm::Tag kFetchRequestTag = 0x0F00;
constexpr SampleId kMultiGetSample = kInvalidSample - 2;

template <typename T>
void append(std::vector<std::byte>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

/// Reply header: the sentinel, found = 1 plus three padding bytes
/// (little-endian), then the sample count.
constexpr std::size_t kReplyCountOffset = 8;

std::vector<std::byte> multi_get_reply(const std::vector<SampleId>& ids, Bytes size) {
  std::vector<std::byte> reply;
  append(reply, kMultiGetSample);
  append(reply, std::uint32_t{1});
  append(reply, std::uint64_t{ids.size()});
  for (const SampleId id : ids) {
    append(reply, id);
    append(reply, std::uint64_t{size});
    const auto payload = make_sample_payload(id, size);
    reply.insert(reply.end(), payload.begin(), payload.end());
  }
  return reply;
}

/// Rank 0 fetches from rank 1, whose raw endpoint answers the one multi-get
/// request with a scripted reply. The answer goes out between post and
/// collect, after the request is sent and before the client waits, so no
/// server thread is needed.
struct ScriptedHolder {
  static FetchPolicy policy() {
    FetchPolicy policy = tight_policy();
    policy.max_retries = 0;
    policy.corrupt_strike_threshold = 0;  // never fence rank 1 off
    return policy;
  }

  std::vector<Result<PayloadView>> fetch(const std::vector<SampleId>& samples,
                                         std::vector<std::byte> reply) {
    auto posted = client.post(1, samples, 0);
    comm::Endpoint& holder = bus.endpoint(1);
    const auto request = holder.recv(kFetchRequestTag);
    EXPECT_TRUE(request.ok());
    if (request.ok()) {
      const auto request_id = comm::Endpoint::value_of<std::uint64_t>(*request);
      (void)holder.send(0, DistributionManager::response_tag(request_id), std::move(reply));
    }
    return client.collect(std::move(posted));
  }

  comm::MessageBus bus{2};
  DistributionManager client{bus.endpoint(0), nullptr, nullptr, policy()};
};

/// The decoder's contract for any reply: per sample, ok with verified
/// bytes, kNotFound or kCorrupt. Returns how many samples came back ok.
std::size_t expect_sound(const std::vector<SampleId>& samples,
                         const std::vector<Result<PayloadView>>& results) {
  EXPECT_EQ(results.size(), samples.size());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < std::min(results.size(), samples.size()); ++i) {
    if (results[i].ok()) {
      EXPECT_TRUE(verify_sample_payload(samples[i], results[i]->data(), results[i]->size()))
          << "sample " << i;
      ++ok;
    } else {
      const StatusCode code = results[i].status().code();
      EXPECT_TRUE(code == StatusCode::kNotFound || code == StatusCode::kCorrupt)
          << "sample " << i << ": " << results[i].status().to_string();
    }
  }
  return ok;
}

const std::vector<SampleId> kThreeSamples = {11, 12, 13};
constexpr Bytes kWireSampleBytes = 64;

TEST(MultiGetDecoder, HugeFoundSizeIsCorruptNotAnOverRead) {
  // found_size = 2^64 - 21 once wrapped `off + found_size` below the reply
  // size, so the decoder verified 2^64 - 21 bytes of a 56-byte reply. The
  // payload it points at is valid as far as it goes (right id, matching
  // length, true pattern to the reply's end), so only the bounds check
  // stands between the decoder and a read past the buffer.
  constexpr std::uint64_t kHuge = ~std::uint64_t{20};
  constexpr SampleId kSample = 7;
  std::vector<std::byte> reply;
  append(reply, kMultiGetSample);
  append(reply, std::uint32_t{1});
  append(reply, std::uint64_t{1});
  append(reply, kSample);
  append(reply, kHuge);
  auto payload = make_sample_payload(kSample, 28);
  std::memcpy(payload.data() + sizeof(SampleId), &kHuge, sizeof(kHuge));
  reply.insert(reply.end(), payload.begin(), payload.end());

  ScriptedHolder peer;
  const auto results = peer.fetch({kSample}, std::move(reply));
  ASSERT_EQ(results.size(), 1U);
  EXPECT_EQ(results[0].status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(peer.client.corrupt_replies(), 1U);
}

TEST(MultiGetDecoder, EveryTruncationDecodesSoundly) {
  const auto clean = multi_get_reply(kThreeSamples, kWireSampleBytes);
  ScriptedHolder peer;
  for (std::size_t keep = 0; keep <= clean.size(); ++keep) {
    SCOPED_TRACE(keep);
    const auto results =
        peer.fetch(kThreeSamples, std::vector<std::byte>(clean.begin(), clean.begin() + keep));
    // Only the whole reply delivers every sample.
    EXPECT_EQ(expect_sound(kThreeSamples, results) == kThreeSamples.size(),
              keep == clean.size());
  }
}

TEST(MultiGetDecoder, EverySingleByteFlipDecodesSoundly) {
  const auto clean = multi_get_reply(kThreeSamples, kWireSampleBytes);
  ScriptedHolder peer;
  Rng rng(0xF11B);
  for (std::size_t at = 0; at < clean.size(); ++at) {
    SCOPED_TRACE(at);
    auto flipped = clean;
    flipped[at] ^= static_cast<std::byte>(1 + rng.bounded(255));
    const std::size_t ok = expect_sound(kThreeSamples, peer.fetch(kThreeSamples, flipped));
    // Only the header's three padding bytes carry nothing to check.
    if (at < 5 || at >= kReplyCountOffset) {
      EXPECT_LT(ok, kThreeSamples.size());
    }
  }
}

TEST(MultiGetDecoder, FalseCountIdAndSizeFieldsDecodeSoundly) {
  const auto clean = multi_get_reply(kThreeSamples, kWireSampleBytes);
  const auto patched = [&clean](std::size_t at, auto value) {
    auto reply = clean;
    std::memcpy(reply.data() + at, &value, sizeof(value));
    return reply;
  };
  ScriptedHolder peer;
  for (const std::uint64_t count : {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{4},
                                    std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    SCOPED_TRACE(count);
    const auto results = peer.fetch(kThreeSamples, patched(kReplyCountOffset, count));
    EXPECT_EQ(expect_sound(kThreeSamples, results), 0U);
  }
  const std::size_t stride = DistributionManager::kMultiGetReplySampleBytes + kWireSampleBytes;
  for (std::size_t i = 0; i < kThreeSamples.size(); ++i) {
    SCOPED_TRACE(i);
    const std::size_t id_at = DistributionManager::kMultiGetReplyHeaderBytes + i * stride;
    for (const SampleId id : {kThreeSamples[i] + 1, kInvalidSample, kMultiGetSample}) {
      const auto results = peer.fetch(kThreeSamples, patched(id_at, id));
      EXPECT_EQ(expect_sound(kThreeSamples, results), i);
    }
    const std::size_t size_at = id_at + sizeof(SampleId);
    // The payload's own length field follows its id.
    const std::size_t length_at = size_at + sizeof(std::uint64_t) + sizeof(SampleId);
    for (const std::uint64_t size :
         {std::uint64_t{0}, std::uint64_t{kWireSampleBytes - 1},
          std::uint64_t{kWireSampleBytes + 1}, std::uint64_t{clean.size()},
          std::uint64_t{1} << 63, ~std::uint64_t{20}, ~std::uint64_t{0}}) {
      SCOPED_TRACE(size);
      auto reply = patched(size_at, size);
      EXPECT_EQ(expect_sound(kThreeSamples, peer.fetch(kThreeSamples, reply)), i);
      // A consistent lie: the payload's length field agrees with found_size.
      // A shorter size still frames a genuine payload prefix, which may
      // verify; nothing after it can.
      if (size >= sizeof(SampleId) + sizeof(std::uint64_t)) {
        std::memcpy(reply.data() + length_at, &size, sizeof(size));
        EXPECT_LE(expect_sound(kThreeSamples, peer.fetch(kThreeSamples, reply)), i + 1);
      }
    }
  }
}

TEST(MultiGetServe, TruncatedAndFalseCountRequestsNeverOverRead) {
  // A live server fed hand-written requests: cut at every length, and with
  // counts that claim more ids than the request carries. It must answer
  // from the ids actually present, or drop a request whose sentinel is
  // cut, and never read past the request.
  comm::MessageBus bus(2);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return kWireSampleBytes; });
  server.start();
  comm::Endpoint& client = bus.endpoint(0);

  constexpr std::size_t kSentinelEnd = 12;  // request id (8) + sentinel (4)
  constexpr std::size_t kIdsOffset = 24;    // ... padding (4) + count (8)
  std::uint64_t request_id = 1;
  std::uint64_t served = 0;
  const auto ask = [&](std::vector<std::byte> request, std::uint64_t expect_ids) {
    const std::uint64_t id = request_id++;
    if (request.size() >= sizeof(id)) std::memcpy(request.data(), &id, sizeof(id));
    const bool answered = request.size() >= kSentinelEnd;
    ASSERT_TRUE(client.send(1, kFetchRequestTag, std::move(request)).ok());
    if (!answered) return;
    const auto reply = client.recv_for(DistributionManager::response_tag(id), 5.0);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    const auto& bytes = reply->bytes();
    ASSERT_EQ(bytes.size(), DistributionManager::kMultiGetReplyHeaderBytes +
                                expect_ids * (DistributionManager::kMultiGetReplySampleBytes +
                                              kWireSampleBytes));
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + kReplyCountOffset, sizeof(count));
    EXPECT_EQ(count, expect_ids);
    served += expect_ids;
  };

  std::vector<std::byte> full;
  append(full, std::uint64_t{0});
  append(full, kMultiGetSample);
  append(full, std::uint32_t{0});
  append(full, std::uint64_t{kThreeSamples.size()});
  for (const SampleId s : kThreeSamples) append(full, s);
  ASSERT_EQ(full.size(), kIdsOffset + kThreeSamples.size() * sizeof(SampleId));

  for (std::size_t keep = 0; keep <= full.size(); ++keep) {
    SCOPED_TRACE(keep);
    const std::uint64_t present = keep < kIdsOffset ? 0 : (keep - kIdsOffset) / sizeof(SampleId);
    ask(std::vector<std::byte>(full.begin(), full.begin() + keep), present);
  }
  for (const std::uint64_t count : {std::uint64_t{4}, std::uint64_t{1000}, std::uint64_t{1} << 32,
                                    ~std::uint64_t{0}}) {
    SCOPED_TRACE(count);
    auto request = full;
    std::memcpy(request.data() + sizeof(std::uint64_t) + sizeof(std::uint64_t), &count,
                sizeof(count));
    ask(std::move(request), kThreeSamples.size());
  }
  EXPECT_EQ(server.served_requests(), served);
  server.stop();
}

// ---- Scatter, then gather: a batch posts every holder's envelope before
// it waits on any reply.

TEST(ScatterGather, HoldersThatAnswerOnlyTogetherServeOneChunk) {
  // Node 0 drains one 16-sample chunk whose misses the directory splits
  // between ranks 1 and 2. Each holder is a raw endpoint that answers a
  // multi-get only once BOTH holders have received a request, and drops a
  // request that waits out its deadline (shorter than the fetch timeout)
  // alone. Asking one holder and awaiting its reply before asking the
  // other times that holder out and degrades its samples.
  constexpr std::uint32_t kBatch = 16;
  constexpr Bytes kSampleBytes = 512;
  constexpr std::size_t kRequestCountOffset = 16;  // request id, sentinel, padding
  constexpr std::size_t kRequestIdsOffset = 24;
  const Plan plan = uniform_plan(3, 1, 1, 1, kBatch, 7);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(3 * kBatch, kSampleBytes),
                                    plan.seed);
  const auto sampler = fault_sampler(catalog.size(), 3, 1, kBatch);
  cache::CacheDirectory directory(3);
  for (SampleId s = 0; s < catalog.size(); ++s) {
    directory.add(s, static_cast<NodeId>(1 + s % 2));
  }
  const auto chunk = sampler.minibatch(0, 0, 0, 0);
  ASSERT_EQ(chunk.size(), kBatch);
  const auto on_rank_1 = std::count_if(chunk.begin(), chunk.end(),
                                       [](SampleId s) { return s % 2 == 0; });
  ASSERT_GT(on_rank_1, 0);
  ASSERT_LT(on_rank_1, static_cast<std::ptrdiff_t>(kBatch));

  comm::MessageBus bus(3);
  FetchPolicy policy = tight_policy();
  policy.timeout = 0.25;
  const auto deadline = std::chrono::duration<double>(policy.timeout / 2);
  std::mutex mutex;
  std::condition_variable asked_cv;
  std::array<bool, 3> asked{};
  const auto serve = [&](const std::stop_token& stop, comm::Rank rank) {
    comm::Endpoint& endpoint = bus.endpoint(rank);
    while (!stop.stop_requested()) {
      const auto request = endpoint.recv_for(kFetchRequestTag, 0.005);
      if (!request.ok()) continue;
      {
        std::unique_lock lock(mutex);
        asked[rank] = true;
        asked_cv.notify_all();
        if (!asked_cv.wait_for(lock, deadline, [&asked] { return asked[1] && asked[2]; })) {
          continue;  // alone past the deadline: never answered
        }
      }
      const auto& bytes = request->bytes();
      std::uint64_t count = 0;
      std::memcpy(&count, bytes.data() + kRequestCountOffset, sizeof(count));
      std::vector<SampleId> ids(static_cast<std::size_t>(count));
      std::memcpy(ids.data(), bytes.data() + kRequestIdsOffset, ids.size() * sizeof(SampleId));
      const auto request_id = comm::Endpoint::value_of<std::uint64_t>(*request);
      (void)endpoint.send(0, DistributionManager::response_tag(request_id),
                          multi_get_reply(ids, kSampleBytes));
    }
  };
  std::jthread holder_1(serve, comm::Rank{1});
  std::jthread holder_2(serve, comm::Rank{2});

  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  ExecutorConfig config;
  config.node = 0;
  config.balance.max_pool_threads = 2;
  PlanExecutor executor(config, catalog, sampler, plan);
  executor.set_manager(&client);
  executor.set_directory(&directory);
  const auto report = executor.run();

  EXPECT_TRUE(report.clean());
  EXPECT_EQ(client.timeouts(), 0U);
  EXPECT_EQ(report.degraded_fetches, 0U);
  ASSERT_EQ(report.iterations.size(), 1U);
  EXPECT_EQ(report.iterations[0].remote_fetches, kBatch);
}

}  // namespace
}  // namespace lobster::runtime
