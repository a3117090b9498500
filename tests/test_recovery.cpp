// Self-healing runtime (DESIGN.md §9 "Recovery model"): corruption
// injection at the bus, the kCorrupt strike path and quarantine in the
// fetch/executor stack, node rejoin via inventory probes, background
// re-replication of orphaned samples, the iteration watchdog, and the
// Monitor's iteration_stalled / corruption_detected anomaly flags.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "comm/bus.hpp"
#include "comm/fault.hpp"
#include "common/status.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"
#include "runtime/local_cluster.hpp"
#include "runtime/recovery.hpp"
#include "runtime/watchdog.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/registry.hpp"

namespace lobster::runtime {
namespace {

using namespace std::chrono_literals;

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

// ---- Bus-level corruption injection.

TEST(RecoveryBus, CorruptedPayloadArrivesButFailsVerification) {
  comm::MessageBus bus(2);
  comm::FaultPlan plan(2);
  plan.spec(0).corrupt_fraction = 1.0;
  bus.set_fault_plan(&plan);

  auto payload = make_sample_payload(5, 256);
  ASSERT_TRUE(verify_sample_payload(5, payload));
  ASSERT_TRUE(bus.endpoint(0).send(1, 1, std::move(payload)).ok());

  // Unlike a drop, the message is delivered — only its content is damaged,
  // which is exactly what end-to-end verification must catch.
  const auto received = bus.endpoint(1).recv_for(1, 1.0);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->bytes().size(), 256U);
  EXPECT_FALSE(verify_sample_payload(5, received->bytes()));
  EXPECT_EQ(plan.corrupted_messages(), 1U);
}

TEST(RecoveryBus, KillAndReviveAtIterationFollowTheIterationClock) {
  comm::FaultPlan plan(3);
  plan.spec(1).kill_at_iter = 2;
  plan.spec(1).revive_at_iter = 4;
  plan.on_iteration(1);
  EXPECT_FALSE(plan.is_down(1));
  plan.on_iteration(2);
  EXPECT_TRUE(plan.is_down(1));
  plan.on_iteration(3);
  EXPECT_TRUE(plan.is_down(1));
  plan.on_iteration(4);
  EXPECT_FALSE(plan.is_down(1));  // revived...
  plan.on_iteration(5);
  EXPECT_FALSE(plan.is_down(1));  // ...and not re-killed by the old kill_at
  EXPECT_EQ(plan.nodes_killed(), 1U);
  EXPECT_EQ(plan.nodes_revived(), 1U);
}

// ---- DistributionManager: kCorrupt replies, strikes, inventory probes.

TEST(RecoveryFetch, CorruptReplyStrikesWithoutRetryThenOpensBreaker) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  fault.spec(1).corrupt_fraction = 1.0;  // every reply from rank 1 is damaged
  bus.set_fault_plan(&fault);
  auto policy = tight_policy();
  policy.corrupt_strike_threshold = 2;
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{512}; }, policy);
  server.start();

  // First corrupt reply: reported immediately (no same-peer retry burned).
  const auto first = client.fetch_remote(1, 1);
  EXPECT_EQ(first.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(client.retries(), 0U);
  EXPECT_EQ(client.corrupt_replies(), 1U);
  EXPECT_FALSE(client.breaker_open(1));

  // Second consecutive strike reaches the threshold: the peer is fenced.
  EXPECT_EQ(client.fetch_remote(2, 1).status().code(), StatusCode::kCorrupt);
  EXPECT_TRUE(client.breaker_open(1));
  EXPECT_EQ(client.breaker_opens(), 1U);
  EXPECT_EQ(client.fetch_remote(3, 1).status().code(), StatusCode::kPeerDown);

  server.stop();
}

TEST(RecoveryFetch, CleanReplyResetsTheCorruptStrikeRun) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  auto policy = tight_policy();
  policy.corrupt_strike_threshold = 2;
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{512}; }, policy);
  server.start();

  fault.spec(1).corrupt_fraction = 1.0;
  EXPECT_EQ(client.fetch_remote(1, 1).status().code(), StatusCode::kCorrupt);
  fault.spec(1).corrupt_fraction = 0.0;
  EXPECT_TRUE(client.fetch_remote(2, 1).ok());  // clean round-trip
  fault.spec(1).corrupt_fraction = 1.0;
  EXPECT_EQ(client.fetch_remote(3, 1).status().code(), StatusCode::kCorrupt);
  // Two corrupt replies total, but never two *consecutive*: still closed.
  EXPECT_FALSE(client.breaker_open(1));
  EXPECT_EQ(client.corrupt_replies(), 2U);

  server.stop();
}

TEST(RecoveryInventory, RoundTripReturnsServedSamplesChecksummed) {
  comm::MessageBus bus(2);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{64}; }, tight_policy());
  server.set_inventory_source([] { return std::vector<SampleId>{3, 1, 2}; });
  server.start();

  const auto inventory = client.fetch_inventory(1);
  ASSERT_TRUE(inventory.ok()) << inventory.status().to_string();
  EXPECT_EQ(*inventory, (std::vector<SampleId>{3, 1, 2}));
  server.stop();
}

TEST(RecoveryInventory, UnsetSourceProvesLivenessWithAnEmptyList) {
  comm::MessageBus bus(2);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());
  DistributionManager server(bus.endpoint(1), [](SampleId) { return false; },
                             [](SampleId) { return Bytes{64}; }, tight_policy());
  server.start();
  const auto inventory = client.fetch_inventory(1);
  ASSERT_TRUE(inventory.ok());
  EXPECT_TRUE(inventory->empty());
  server.stop();
}

TEST(RecoveryInventory, CorruptedInventoryReplyIsRejectedByTheChecksum) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  fault.spec(1).corrupt_fraction = 1.0;
  bus.set_fault_plan(&fault);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{64}; }, tight_policy());
  server.set_inventory_source([] { return std::vector<SampleId>{7, 8, 9}; });
  server.start();

  // A damaged inventory must never be replayed into the directory: the
  // checksum (or shape check) rejects it as kCorrupt.
  const auto inventory = client.fetch_inventory(1);
  ASSERT_FALSE(inventory.ok());
  EXPECT_EQ(inventory.status().code(), StatusCode::kCorrupt);
  EXPECT_GE(client.corrupt_replies(), 1U);
  server.stop();
}

TEST(RecoveryInventory, FalseCountNearTwoToTheSixtyTwoIsCorrupt) {
  // A 24-byte reply (header, count, checksum) whose count makes
  // `count * sizeof(SampleId)` wrap to zero: the shape check must reject
  // it rather than size a 2^62-entry id list.
  comm::MessageBus bus(2);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());
  std::thread holder([&bus] {
    comm::Endpoint& endpoint = bus.endpoint(1);
    const auto request = endpoint.recv(0x0F00);  // the sample-protocol request tag
    ASSERT_TRUE(request.ok());
    const auto request_id = comm::Endpoint::value_of<std::uint64_t>(*request);
    const SampleId inventory_sentinel = kInvalidSample - 1;
    const std::uint64_t header[3] = {inventory_sentinel | (std::uint64_t{1} << 32),
                                     std::uint64_t{1} << 62, 0};
    std::vector<std::byte> reply(sizeof(header));
    std::memcpy(reply.data(), header, sizeof(header));
    (void)endpoint.send(0, DistributionManager::response_tag(request_id), std::move(reply));
  });
  const auto inventory = client.fetch_inventory(1);
  holder.join();
  EXPECT_EQ(inventory.status().code(), StatusCode::kCorrupt);
}

// ---- Executor quarantine: corrupt holders re-routed, KV entries evicted.

data::EpochSampler small_sampler(std::uint32_t num_samples, std::uint16_t nodes,
                                 std::uint16_t gpus, std::uint32_t batch) {
  data::SamplerConfig config;
  config.num_samples = num_samples;
  config.nodes = nodes;
  config.gpus_per_node = gpus;
  config.batch_size = batch;
  config.seed = 7;
  return data::EpochSampler(config);
}

TEST(RecoveryExecutor, CorruptHolderIsBypassedToTheNextReplica) {
  constexpr std::uint16_t kNodes = 3;
  constexpr std::uint32_t kIters = 2;
  constexpr std::uint32_t kBatch = 8;
  const Plan plan = uniform_plan(kNodes, 1, 1, kIters, kBatch, 7);
  const data::SampleCatalog catalog(
      data::DatasetSpec::uniform(kNodes * kIters * kBatch, 512), plan.seed);
  const auto sampler = small_sampler(catalog.size(), kNodes, 1, kBatch);

  comm::FaultPlan fault(kNodes);
  fault.spec(1).corrupt_fraction = 1.0;
  LocalCluster cluster(catalog, sampler, plan, tight_policy());
  cluster.bus().set_fault_plan(&fault);
  // Every sample lives on ranks 1 AND 2; rank 1 (the preferred, lowest-rank
  // holder) serves corrupted bytes, rank 2 is clean.
  for (SampleId s = 0; s < catalog.size(); ++s) {
    cluster.directory().add(s, 1);
    cluster.directory().add(s, 2);
  }

  ExecutorConfig config;
  config.balance.max_pool_threads = 4;
  cluster.execute(0, config);
  for (std::uint16_t r = 1; r < kNodes; ++r) cluster.serve(r, [](SampleId) { return true; });
  const auto report = std::move(cluster.run()[0]);

  // Every delivery is clean — the corrupt copies were intercepted, the
  // fetches re-routed to the clean replica, and nothing fell to the PFS.
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.payload_failures, 0U);
  EXPECT_GT(report.quarantined_payloads, 0U);
  EXPECT_GT(report.degraded_fetches, 0U);
  std::uint32_t remote = 0;
  std::uint32_t pfs = 0;
  for (const auto& iteration : report.iterations) {
    remote += iteration.remote_fetches;
    pfs += iteration.pfs_fetches;
  }
  EXPECT_GT(remote, 0U);
  EXPECT_EQ(pfs, 0U);
  EXPECT_GT(cluster.manager(0).corrupt_replies(), 0U);
}

TEST(RecoveryExecutor, CorruptHolderIsAskedOnceAndEachRerouteCountsDegradedOnce) {
  // Every sample lives on ranks 1 AND 2, and every reply rank 1 sends is
  // damaged. A sample whose bytes came back corrupt is quarantined, rank 1
  // joins its exclude mask, and it goes to rank 2 in the next round: rank 1
  // is never asked for it again, and it counts as degraded exactly once.
  constexpr std::uint16_t kNodes = 3;
  constexpr std::uint32_t kBatch = 16;
  const Plan plan = uniform_plan(kNodes, 1, 1, 1, kBatch, 7);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(kNodes * kBatch, 512),
                                    plan.seed);
  const auto sampler = small_sampler(catalog.size(), kNodes, 1, kBatch);

  comm::FaultPlan fault(kNodes);
  fault.spec(1).corrupt_fraction = 1.0;
  auto policy = tight_policy();
  policy.corrupt_strike_threshold = 100;  // rank 1 keeps answering
  LocalCluster cluster(catalog, sampler, plan, policy);
  cluster.bus().set_fault_plan(&fault);
  for (SampleId s = 0; s < catalog.size(); ++s) {
    cluster.directory().add(s, 1);
    cluster.directory().add(s, 2);
  }

  ExecutorConfig config;
  config.balance.max_pool_threads = 2;
  cluster.execute(0, config);
  const auto has = [](SampleId) { return true; };
  const DistributionManager& corrupt_holder = cluster.serve(1, has);
  const DistributionManager& clean_holder = cluster.serve(2, has);
  const auto report = std::move(cluster.run()[0]);

  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.iterations.size(), 1U);
  EXPECT_EQ(report.iterations[0].remote_fetches, kBatch);
  EXPECT_EQ(report.iterations[0].pfs_fetches, 0U);
  EXPECT_GT(report.quarantined_payloads, 0U);
  // Rank 1 served each sample of the minibatch once: its first route.
  EXPECT_EQ(corrupt_holder.served_requests(), kBatch);
  // Each quarantined sample was re-routed to rank 2 once, counted once.
  EXPECT_EQ(clean_holder.served_requests(), report.quarantined_payloads);
  EXPECT_EQ(report.degraded_fetches, report.quarantined_payloads);
}

TEST(RecoveryExecutor, CorruptKvEntryIsEvictedAndRepublishedVerified) {
  constexpr std::uint32_t kBatch = 4;
  const Plan plan = uniform_plan(1, 1, 1, 1, kBatch, 7);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(kBatch, 256), plan.seed);
  const auto sampler = small_sampler(catalog.size(), 1, 1, kBatch);

  // Poison the cluster KV store: every sample's entry is garbage.
  cache::KvStore kv(4);
  for (SampleId s = 0; s < catalog.size(); ++s) {
    ASSERT_TRUE(kv.put(s, std::vector<std::byte>(catalog.sample_bytes(s))).ok());
  }

  LocalCluster cluster(catalog, sampler, plan, tight_policy());
  ExecutorConfig config;
  config.balance.max_pool_threads = 2;
  cluster.execute(0, config).set_kv_store(&kv);

  const auto report = std::move(cluster.run()[0]);

  // Every poisoned entry was quarantined: evicted, re-materialized from the
  // PFS, delivered verified, and re-published clean.
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.payload_failures, 0U);
  EXPECT_EQ(report.quarantined_payloads, kBatch);
  for (SampleId s = 0; s < catalog.size(); ++s) {
    const auto entry = kv.get(s);
    ASSERT_TRUE(entry.ok());
    EXPECT_TRUE(verify_sample_payload(s, **entry));
  }
}

// ---- RecoveryManager: rejoin via inventory probe, re-replication.

TEST(RecoveryManager_, DeadPeerRejoinsAndResidencyIsReplayed) {
  comm::MessageBus bus(2);
  comm::FaultPlan fault(2);
  bus.set_fault_plan(&fault);
  auto policy = tight_policy();
  policy.breaker_threshold = 1;  // first timeout opens the breaker
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, policy);
  DistributionManager server(bus.endpoint(1), [](SampleId) { return true; },
                             [](SampleId) { return Bytes{128}; }, policy);
  server.set_inventory_source([] { return std::vector<SampleId>{10, 11}; });
  server.start();

  std::atomic<int> breaker_closes{0};
  client.set_on_breaker_close([&breaker_closes](comm::Rank) { ++breaker_closes; });

  cache::CacheDirectory directory(2);
  directory.add(10, 1);
  directory.add(11, 1);

  cache::KvStore kv(4);
  RecoveryManager recovery(directory, client,
                           [](SampleId) { return Bytes{128}; });
  recovery.set_kv_store(&kv);

  // The peer dies: its entries are dropped, its samples orphaned.
  fault.kill(1);
  recovery.note_orphans(directory.drop_node(1));
  ASSERT_TRUE(directory.node_down(1));
  EXPECT_EQ(directory.peer_holder(10, 0), cache::CacheDirectory::kInvalidNode);

  // While dead: the probe fails (opening the breaker), but re-replication
  // re-homes the orphans into the KV store so fetches stop paying the PFS.
  EXPECT_FALSE(recovery.poll_once());
  EXPECT_TRUE(client.breaker_open(1));
  EXPECT_EQ(recovery.stats().rejoins, 0U);
  EXPECT_EQ(recovery.stats().replicated_samples, 2U);
  EXPECT_TRUE(kv.get(10).ok());
  EXPECT_TRUE(verify_sample_payload(10, **kv.get(10)));

  // The peer comes back: the next inventory probe is the half-open probe —
  // it bypasses the open breaker, succeeds, re-closes it, revives the node,
  // and replays its residency so routing targets it again.
  fault.revive(1);
  EXPECT_TRUE(recovery.poll_once());
  EXPECT_FALSE(directory.node_down(1));
  EXPECT_FALSE(client.breaker_open(1));
  EXPECT_EQ(breaker_closes.load(), 1);
  EXPECT_TRUE(directory.holds(10, 1));
  EXPECT_TRUE(directory.holds(11, 1));
  EXPECT_EQ(directory.peer_holder(10, 0), 1);
  const auto stats = recovery.stats();
  EXPECT_EQ(stats.rejoins, 1U);
  EXPECT_EQ(stats.inventory_samples_restored, 2U);
  EXPECT_GE(stats.probes, 2U);

  // Re-replication converges: nothing new to publish on the next round.
  recovery.poll_once();
  EXPECT_EQ(recovery.stats().replicated_samples, 2U);

  server.stop();
}

TEST(RecoveryManager_, SoleHolderSamplesOfADownNodeAreRepublished) {
  comm::MessageBus bus(3);
  DistributionManager client(bus.endpoint(0), nullptr, nullptr, tight_policy());

  cache::CacheDirectory directory(3);
  directory.add(1, 1);  // sole holder: node 1
  directory.add(2, 1);
  directory.add(2, 2);  // replicated: not at risk
  directory.mark_node_down(1);

  cache::KvStore kv(4);
  RecoveryManager recovery(directory, client, [](SampleId) { return Bytes{64}; });
  recovery.set_kv_store(&kv);

  recovery.poll_once();  // probe of node 1 times out; replication still runs
  EXPECT_TRUE(kv.get(1).ok());    // the at-risk sample was re-homed
  EXPECT_FALSE(kv.get(2).ok());   // the replicated one was left alone
  EXPECT_EQ(recovery.stats().replicated_samples, 1U);
}

// ---- Directory under concurrent mutation (shared_mutex surface).

TEST(RecoveryDirectory, ConcurrentAddAndRoutingQueriesAreSafe) {
  cache::CacheDirectory directory(4);
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    for (SampleId s = 0; s < 2000; ++s) {
      directory.add(s, static_cast<NodeId>(s % 4));
      if (s % 3 == 0) directory.remove(s, static_cast<NodeId>(s % 4));
    }
    stop.store(true);
  });
  std::uint64_t sink = 0;
  while (!stop.load()) {
    for (SampleId s = 0; s < 100; ++s) {
      sink += directory.peer_holder(s, 0) != cache::CacheDirectory::kInvalidNode;
      sink += directory.holder_count(s);
    }
  }
  mutator.join();
  EXPECT_GE(directory.tracked_samples(), 1U);
  (void)sink;
}

// ---- Iteration watchdog.

TEST(RecoveryWatchdog, FlagsAnIterationPastItsDeadlineExactlyOnce) {
  WatchdogConfig config;
  config.multiplier = 2.0;
  config.min_deadline = 0.02;
  config.window = 4;
  IterationWatchdog watchdog(config);
  watchdog.start();

  // Fast iterations: never flagged, and they seed the trailing median.
  for (IterId i = 0; i < 3; ++i) {
    watchdog.begin_iteration(i);
    std::this_thread::sleep_for(1ms);
    watchdog.end_iteration();
  }
  EXPECT_EQ(watchdog.stalls(), 0U);
  EXPECT_GE(watchdog.next_deadline(), config.min_deadline);

  // A stalled iteration: flagged once, not once per check.
  watchdog.begin_iteration(99);
  std::this_thread::sleep_for(80ms);
  EXPECT_EQ(watchdog.stalls(), 1U);
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(watchdog.stalls(), 1U);
  watchdog.end_iteration();

  // Healthy again: no new flags.
  watchdog.begin_iteration(100);
  std::this_thread::sleep_for(1ms);
  watchdog.end_iteration();
  EXPECT_EQ(watchdog.stalls(), 1U);
  watchdog.stop();
}

TEST(RecoveryWatchdog, ExecutorBracketsIterationsThroughTheHook) {
  constexpr std::uint32_t kBatch = 4;
  const Plan plan = uniform_plan(1, 1, 1, 2, kBatch, 7);
  const data::SampleCatalog catalog(data::DatasetSpec::uniform(2 * kBatch, 128), plan.seed);
  const auto sampler = small_sampler(catalog.size(), 1, 1, kBatch);

  WatchdogConfig wconfig;
  wconfig.multiplier = 3.0;
  wconfig.min_deadline = 5.0;  // generous: this run must NOT stall
  IterationWatchdog watchdog(wconfig);
  watchdog.start();

  ExecutorConfig config;
  config.node = 0;
  config.balance.max_pool_threads = 2;
  PlanExecutor executor(config, catalog, sampler, plan);
  executor.set_watchdog(&watchdog);
  const auto report = executor.run();
  watchdog.stop();

  EXPECT_TRUE(report.clean());
  EXPECT_EQ(watchdog.stalls(), 0U);
  // end_iteration() fed the window: the next deadline reflects real
  // iteration durations, not just the floor... but stays >= the floor.
  EXPECT_GE(watchdog.next_deadline(), wconfig.min_deadline);
}

// ---- Monitor: iteration_stalled / corruption_detected flags.

TEST(RecoveryMonitor, StallAndCorruptionFlagsFollowCounterDeltas) {
  auto& registry = telemetry::MetricRegistry::instance();
  registry.reset();
  telemetry::MonitorConfig config;
  config.log_text = false;
  telemetry::Monitor monitor(config);

  EXPECT_FALSE(monitor.sample_once().any_flag());

  registry.counter("executor.iteration_stalls").add(1);
  registry.counter("comm.corrupt_replies").add(3);
  const auto flagged = monitor.sample_once();
  EXPECT_TRUE(flagged.iteration_stalled);
  EXPECT_TRUE(flagged.corruption_detected);
  EXPECT_TRUE(flagged.any_flag());
  EXPECT_EQ(flagged.iteration_stalls, 1U);
  EXPECT_EQ(flagged.corrupt_replies, 3U);

  // Delta-based: the next healthy interval clears both.
  const auto recovered = monitor.sample_once();
  EXPECT_FALSE(recovered.iteration_stalled);
  EXPECT_FALSE(recovered.corruption_detected);
}

}  // namespace
}  // namespace lobster::runtime
