// Multi-tenant cluster runtime (DESIGN.md §10): job scheduler lifecycle and
// policies, dataset-namespace dedup, the cross-job KV budget arbiter
// (imminence-protected eviction, shrinking budgets), fairness telemetry,
// the JobWindowOracle timeline lift, and a small end-to-end cluster run.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "cache/namespace.hpp"
#include "cluster/budget_arbiter.hpp"
#include "cluster/cluster_runtime.hpp"
#include "cluster/fairness.hpp"
#include "cluster/job.hpp"
#include "cluster/namespace_registry.hpp"
#include "cluster/scheduler.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace lobster::cluster {
namespace {

JobSpec small_spec(std::string name, std::uint16_t nodes, std::uint64_t dataset_seed = 42) {
  JobSpec spec;
  spec.name = std::move(name);
  spec.nodes = nodes;
  spec.gpus_per_node = 2;
  spec.batch_size = 4;
  spec.epochs = 2;
  spec.dataset = data::DatasetSpec::uniform(256, 4096, "cluster-test");
  spec.dataset_seed = dataset_seed;
  return spec;
}

cache::KvStore::PayloadPtr payload(Bytes bytes) {
  return std::make_shared<std::vector<std::byte>>(bytes);
}

// ---------------------------------------------------------------------------
// JobManager: lifecycle and policies
// ---------------------------------------------------------------------------

TEST(JobManager, LifecycleAssignsContiguousBlocksAndFreesThem) {
  JobManager manager(8, SchedulerPolicy::kFifo);
  const JobId a = manager.submit(small_spec("a", 5), 0);
  const JobId b = manager.submit(small_spec("b", 3), 0);

  const auto admitted = manager.admit(0);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(manager.record(a).state, JobState::kRunning);
  EXPECT_EQ(manager.record(b).state, JobState::kRunning);
  EXPECT_EQ(manager.record(a).block.first, 0u);
  EXPECT_EQ(manager.record(a).block.count, 5u);
  EXPECT_EQ(manager.record(b).block.first, 5u);
  EXPECT_EQ(manager.free_nodes(), 0u);

  manager.finish(a, 4);
  EXPECT_EQ(manager.record(a).state, JobState::kFinished);
  EXPECT_EQ(manager.record(a).finish_round, 4u);
  EXPECT_EQ(manager.free_nodes(), 5u);
  // Double-finish (and finishing a queued job) is a contract violation.
  EXPECT_THROW(manager.finish(a, 5), std::logic_error);
}

TEST(JobManager, ImpossibleSpecIsRejectedNotQueued) {
  JobManager manager(4, SchedulerPolicy::kFairShare);
  const JobId wide = manager.submit(small_spec("wide", 5), 0);
  EXPECT_EQ(manager.record(wide).state, JobState::kRejected);
  EXPECT_TRUE(manager.admit(0).empty());
}

TEST(JobManager, FifoBlocksBehindHeadOfLine) {
  JobManager manager(8, SchedulerPolicy::kFifo);
  const JobId running = manager.submit(small_spec("running", 6), 0);
  manager.admit(0);
  const JobId wide = manager.submit(small_spec("wide", 6), 1);
  const JobId narrow = manager.submit(small_spec("narrow", 2), 1);

  // Two nodes are free and `narrow` fits, but FIFO refuses to jump `wide`.
  EXPECT_TRUE(manager.admit(1).empty());
  EXPECT_EQ(manager.record(wide).state, JobState::kQueued);
  EXPECT_EQ(manager.record(narrow).state, JobState::kQueued);

  manager.finish(running, 2);
  const auto admitted = manager.admit(2);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0], wide);
  EXPECT_EQ(admitted[1], narrow);
}

TEST(JobManager, FairShareBackfillsAroundWideJob) {
  JobManager manager(8, SchedulerPolicy::kFairShare);
  manager.submit(small_spec("running", 6), 0);
  manager.admit(0);
  const JobId wide = manager.submit(small_spec("wide", 6), 1);
  const JobId narrow = manager.submit(small_spec("narrow", 2), 1);

  const auto admitted = manager.admit(1);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], narrow);
  EXPECT_EQ(manager.record(wide).state, JobState::kQueued);
}

TEST(JobManager, FairShareWeightBreaksWaitTies) {
  JobManager manager(4, SchedulerPolicy::kFairShare);
  manager.submit(small_spec("hog", 4), 0);
  manager.admit(0);
  const JobId light = manager.submit(small_spec("light", 4), 1);
  JobSpec heavy_spec = small_spec("heavy", 4);
  heavy_spec.weight = 4.0;
  const JobId heavy = manager.submit(heavy_spec, 1);

  manager.finish(manager.running()[0], 3);
  // Equal wait, 4x weight: the heavier tenant's deficit wins the block.
  const auto admitted = manager.admit(3);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], heavy);
  EXPECT_EQ(manager.record(light).state, JobState::kQueued);
}

TEST(JobManager, FutureArrivalsStayInvisibleUntilTheirRound) {
  JobManager manager(8, SchedulerPolicy::kFairShare);
  const JobId later = manager.submit(small_spec("later", 2), 5);
  EXPECT_TRUE(manager.admit(0).empty());
  EXPECT_EQ(manager.oldest_queued_wait(4), 0u);

  const auto admitted = manager.admit(5);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0], later);
  EXPECT_EQ(manager.record(later).admit_round, 5u);
}

TEST(JobManager, BudgetGateVetoesAdmission) {
  JobManager manager(8, SchedulerPolicy::kFairShare);
  const JobId id = manager.submit(small_spec("gated", 2), 0);
  bool allow = false;
  const auto gate = [&allow](const JobSpec&) { return allow; };
  EXPECT_TRUE(manager.admit(0, gate).empty());
  EXPECT_EQ(manager.record(id).state, JobState::kQueued);
  allow = true;
  EXPECT_EQ(manager.admit(1, gate).size(), 1u);
}

// ---------------------------------------------------------------------------
// Namespace registry: cross-job dedup identity
// ---------------------------------------------------------------------------

TEST(NamespaceRegistry, SameDatasetSharesOneNamespace) {
  NamespaceRegistry registry;
  const auto fp_a = dataset_fingerprint(small_spec("a", 2, 7));
  const auto fp_b = dataset_fingerprint(small_spec("b", 4, 7));
  const auto fp_other = dataset_fingerprint(small_spec("c", 2, 8));
  EXPECT_EQ(fp_a, fp_b);  // identity is (dataset, seed), not name/shape
  EXPECT_NE(fp_a, fp_other);

  const auto ns = registry.acquire(fp_a);
  EXPECT_EQ(registry.acquire(fp_b), ns);
  EXPECT_TRUE(registry.shared(ns));
  EXPECT_EQ(registry.refcount(ns), 2u);
  const auto other = registry.acquire(fp_other);
  EXPECT_NE(other, ns);
  EXPECT_GE(ns, 1u);  // 0 stays the single-job default

  EXPECT_FALSE(registry.release(ns));
  EXPECT_FALSE(registry.shared(ns));
  EXPECT_TRUE(registry.release(ns));  // last job out: caller drops KV entries
  EXPECT_EQ(registry.live_namespaces(), 1u);
}

TEST(NamespaceKeys, PackAndUnpackRoundTrip) {
  const SampleId key = cache::make_namespaced_key(3, 12345);
  EXPECT_EQ(cache::namespace_of(key), 3u);
  EXPECT_EQ(cache::sample_of(key), 12345u);
  // Namespace 0 keeps single-job keys unchanged.
  EXPECT_EQ(cache::make_namespaced_key(0, 777), 777u);
  EXPECT_THROW(cache::make_namespaced_key(0, cache::kNamespaceSampleMask + 1),
               std::invalid_argument);
  EXPECT_THROW(cache::make_namespaced_key(cache::kMaxNamespace + 1, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// KvBudgetArbiter: imminence-protected cross-job eviction
// ---------------------------------------------------------------------------

TEST(KvBudgetArbiter, EvictsFarthestFutureVictimFirst) {
  cache::KvStore kv(4);
  // key -> rounds until next use by any job of its namespace.
  std::unordered_map<SampleId, IterId> distance{{1, 2}, {2, 50}, {3, 5}};
  KvBudgetArbiter arbiter(kv, 3000, [&distance](SampleId key) {
    const auto it = distance.find(key);
    return it == distance.end() ? kNeverIter : it->second;
  });

  EXPECT_TRUE(arbiter.publish(1, payload(1000), 0, nullptr).ok());
  EXPECT_TRUE(arbiter.publish(2, payload(1000), 0, nullptr).ok());
  EXPECT_TRUE(arbiter.publish(3, payload(1000), 0, nullptr).ok());
  ASSERT_EQ(kv.size(), 3u);

  // A fourth publish must evict exactly the farthest-future entry (key 2).
  distance[4] = 1;
  EXPECT_TRUE(arbiter.publish(4, payload(1000), 0, nullptr).ok());
  EXPECT_FALSE(kv.contains(2));
  EXPECT_TRUE(kv.contains(1));
  EXPECT_TRUE(kv.contains(3));
  EXPECT_TRUE(kv.contains(4));
  EXPECT_EQ(arbiter.stats().evictions, 1u);

  // A tie on distance evicts the larger key first.
  distance[1] = 7;
  distance[3] = 7;
  distance[5] = 1;
  EXPECT_TRUE(arbiter.publish(5, payload(1000), 0, nullptr).ok());
  EXPECT_TRUE(kv.contains(1));
  EXPECT_FALSE(kv.contains(3));
  EXPECT_EQ(arbiter.stats().evictions, 2u);
}

TEST(KvBudgetArbiter, PublishRefusedWhenOnlyVictimsAreImminent) {
  cache::KvStore kv(4);
  KvBudgetArbiter arbiter(kv, 2000, [](SampleId) { return IterId{0}; });
  EXPECT_TRUE(arbiter.publish(1, payload(1000), 0, nullptr).ok());
  EXPECT_TRUE(arbiter.publish(2, payload(1000), 0, nullptr).ok());

  // Every resident entry is needed this round: the publish is refused, the
  // cache is untouched, and the refusal is counted.
  const auto status = arbiter.publish(3, payload(1000), 0, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kOverflow);
  EXPECT_TRUE(kv.contains(1));
  EXPECT_TRUE(kv.contains(2));
  EXPECT_FALSE(kv.contains(3));
  EXPECT_EQ(arbiter.stats().rejected_publishes, 1u);
  EXPECT_GT(arbiter.stats().protected_entries, 0u);
}

TEST(KvBudgetArbiter, ShrinkingBudgetNeverEvictsImminentSamples) {
  cache::KvStore kv(4);
  cache::CacheDirectory directory(4);
  // Key 10 is needed by some job THIS round; 11/12 are far future.
  std::unordered_map<SampleId, IterId> distance{{10, 0}, {11, 30}, {12, 40}};
  KvBudgetArbiter arbiter(kv, 0, [&distance](SampleId key) { return distance.at(key); });
  for (const SampleId key : {10u, 11u, 12u}) {
    ASSERT_TRUE(arbiter.publish(key, payload(1000), 1, &directory).ok());
    EXPECT_TRUE(directory.holds(key, 1));
  }

  // Mid-run lowering to less than one entry's footprint: the far-future
  // entries go, the imminent one survives, and the arbiter reports the
  // deficit instead of breaking another job's iteration.
  arbiter.set_budget(500, &directory);
  EXPECT_TRUE(kv.contains(10));
  EXPECT_FALSE(kv.contains(11));
  EXPECT_FALSE(kv.contains(12));
  EXPECT_TRUE(directory.holds(10, 1));
  EXPECT_FALSE(directory.holds(11, 1));
  const auto stats = arbiter.stats();
  EXPECT_EQ(stats.shrinks, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.deficit_bytes, 500u);  // 1000 tracked vs 500 budget
  EXPECT_EQ(arbiter.bytes_tracked(), 1000u);
}

TEST(KvBudgetArbiter, DropNamespaceErasesStoreAndDirectory) {
  cache::KvStore kv(4);
  cache::CacheDirectory directory(4);
  KvBudgetArbiter arbiter(kv, 0, [](SampleId) { return kNeverIter; });
  const SampleId in_ns = cache::make_namespaced_key(2, 5);
  ASSERT_TRUE(arbiter.publish(in_ns, payload(600), 0, &directory).ok());
  ASSERT_TRUE(arbiter.publish(cache::make_namespaced_key(2, 9), payload(400), 1, &directory).ok());
  // The other namespace shares sample ids with the dropped one.
  std::vector<SampleId> others;
  for (const SampleId sample : {5u, 0u, 9u, 3u}) {
    others.push_back(cache::make_namespaced_key(3, sample));
    ASSERT_TRUE(arbiter.publish(others.back(), payload(700), sample % 4, &directory).ok());
  }
  EXPECT_EQ(arbiter.namespace_bytes(2), 1000u);
  const auto other_manifest = arbiter.namespace_manifest(3);

  EXPECT_EQ(arbiter.drop_namespace(2, &directory), 1000u);
  EXPECT_FALSE(kv.contains(in_ns));
  EXPECT_FALSE(directory.holds(in_ns, 0));
  EXPECT_EQ(arbiter.namespace_bytes(2), 0u);
  EXPECT_TRUE(arbiter.namespace_manifest(2).empty());
  EXPECT_FALSE(arbiter.rehome(in_ns, 1));

  // Namespace 3 keeps every entry, byte and directory row.
  EXPECT_EQ(arbiter.bytes_tracked(), 2800u);
  EXPECT_EQ(arbiter.namespace_bytes(3), 2800u);
  EXPECT_EQ(kv.bytes_in_namespace(3), 2800u);
  const auto manifest = arbiter.namespace_manifest(3);
  ASSERT_EQ(manifest.size(), other_manifest.size());
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    EXPECT_EQ(manifest[i].key, other_manifest[i].key);
    EXPECT_EQ(manifest[i].holder, other_manifest[i].holder);
    EXPECT_EQ(manifest[i].bytes, other_manifest[i].bytes);
  }
  for (const SampleId key : others) {
    EXPECT_TRUE(kv.contains(key));
    EXPECT_TRUE(directory.holds(key, static_cast<NodeId>(cache::sample_of(key) % 4)));
  }
}

TEST(KvBudgetArbiter, ManifestIsCompleteAndKeySortedAcrossEvictions) {
  cache::KvStore kv(4);
  cache::CacheDirectory directory(4);
  // Distances vary with the key so victims come from every namespace.
  const auto distance = [](SampleId key) -> IterId {
    return 1 + (cache::sample_of(key) * 7 + cache::namespace_of(key) * 3) % 11;
  };
  KvBudgetArbiter arbiter(kv, 40 * 1000, distance);

  // Interleave publishes across three namespaces in a scrambled sample
  // order; the budget holds 40 of the 90 entries, so evictions interleave
  // with the publishes.
  for (SampleId i = 0; i < 30; ++i) {
    const SampleId sample = (i * 17) % 30;
    for (const cache::NamespaceId ns : {1u, 2u, 3u}) {
      const SampleId key = cache::make_namespaced_key(ns, sample);
      ASSERT_TRUE(arbiter.publish(key, payload(1000), (sample + ns) % 4, &directory).ok());
    }
  }
  EXPECT_EQ(arbiter.stats().evictions, 50u);
  EXPECT_EQ(arbiter.bytes_tracked(), 40u * 1000);

  std::size_t listed = 0;
  for (const cache::NamespaceId ns : {1u, 2u, 3u}) {
    const auto manifest = arbiter.namespace_manifest(ns);
    // Complete: exactly the keys the store still holds, in key order.
    const std::vector<SampleId> stored = kv.keys_in_namespace(ns);
    ASSERT_EQ(manifest.size(), stored.size()) << "namespace " << ns;
    Bytes bytes = 0;
    for (std::size_t i = 0; i < manifest.size(); ++i) {
      EXPECT_EQ(manifest[i].key, stored[i]);
      if (i > 0) {
        EXPECT_LT(manifest[i - 1].key, manifest[i].key);
      }
      const SampleId sample = cache::sample_of(manifest[i].key);
      EXPECT_EQ(manifest[i].holder, (sample + ns) % 4);
      EXPECT_EQ(manifest[i].bytes, 1000u);
      EXPECT_TRUE(directory.holds(manifest[i].key, manifest[i].holder));
      bytes += manifest[i].bytes;
    }
    EXPECT_EQ(bytes, arbiter.namespace_bytes(ns));
    listed += manifest.size();
  }
  EXPECT_EQ(listed, 40u);
}

TEST(ZeroPayloads, OneSharedZeroBufferPerSize) {
  ZeroPayloads payloads;
  const auto a = payloads.get(4096);
  const auto b = payloads.get(4096);
  const auto small = payloads.get(100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, small);
  ASSERT_EQ(a->size(), 4096u);
  ASSERT_EQ(small->size(), 100u);
  for (const std::byte byte : *a) ASSERT_EQ(byte, std::byte{0});
  for (const std::byte byte : *small) ASSERT_EQ(byte, std::byte{0});

  // The cache does not own its buffers: the last holder frees one.
  std::weak_ptr<const std::vector<std::byte>> watch;
  {
    const auto held = payloads.get(777);
    watch = held;
  }
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------------
// FairnessTracker
// ---------------------------------------------------------------------------

TEST(FairnessTracker, SlowdownIsTurnaroundOverIsolated) {
  telemetry::MetricRegistry::instance().reset();
  FairnessTracker tracker(64);
  tracker.set_isolated_baseline(0, "job-a", 2.0);

  JobRecord record;
  record.id = 0;
  record.spec = small_spec("job-a", 2);
  record.state = JobState::kFinished;
  record.submit_round = 0;
  record.admit_round = 4;
  record.finish_round = 20;
  tracker.on_finish(record, 0.0, 1.0, 5.0);

  const auto& fairness = tracker.job(0);
  EXPECT_TRUE(fairness.finished);
  EXPECT_DOUBLE_EQ(fairness.queue_wait_s, 1.0);
  EXPECT_DOUBLE_EQ(fairness.turnaround_s, 5.0);
  EXPECT_DOUBLE_EQ(fairness.slowdown, 2.5);
  EXPECT_EQ(fairness.queue_wait_rounds, 4u);
  EXPECT_DOUBLE_EQ(tracker.max_slowdown(), 2.5);
  // Per-job aggregates land under the tenant prefix for the analyzer.
  EXPECT_EQ(job_metric_prefix("job-a"), "cluster.job/job-a/");
  EXPECT_DOUBLE_EQ(
      telemetry::MetricRegistry::instance().gauge("cluster.job/job-a/slowdown").value(), 2.5);
}

TEST(FairnessTracker, StarvationFlagsOncePastThreshold) {
  telemetry::MetricRegistry::instance().reset();
  // observe_round publishes via LOBSTER_METRIC_* which gate on
  // metrics_active(); arm metrics-only mode as the monitor would.
  telemetry::Tracer::instance().set_metrics_enabled(true);
  FairnessTracker tracker(3);
  JobManager manager(4, SchedulerPolicy::kFifo);
  manager.submit(small_spec("hog", 4), 0);
  manager.admit(0);
  const JobId starving = manager.submit(small_spec("starving", 4), 0);

  for (std::uint64_t round = 0; round < 6; ++round) tracker.observe_round(manager, round);
  telemetry::Tracer::instance().set_metrics_enabled(false);
  EXPECT_EQ(tracker.starvation_events(), 1u);  // flagged once, not per round
  EXPECT_TRUE(tracker.job(starving).starved);
#if !defined(LOBSTER_TELEMETRY_DISABLED)
  // The registry half: compiled-out LOBSTER_METRIC_* macros never set it.
  EXPECT_EQ(
      telemetry::MetricRegistry::instance().counter("cluster.job_starvations").value(), 1u);
  EXPECT_DOUBLE_EQ(
      telemetry::MetricRegistry::instance().gauge("cluster.jobs_queued").value(), 1.0);
#endif
}

// ---------------------------------------------------------------------------
// JobWindowOracle: lifting a job's accesses onto the cluster timeline
// ---------------------------------------------------------------------------

TEST(JobWindowOracle, TranslatesIterationsAndNodesOntoClusterTimeline) {
  data::SamplerConfig config;
  config.num_samples = 64;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.batch_size = 4;
  config.seed = 3;
  const data::EpochSampler sampler(config);
  const data::FutureAccessOracle inner(sampler, 2);

  const std::uint64_t admit_round = 10;
  const NodeBlock block{4, 2};
  const JobWindowOracle lifted(inner, admit_round, block);

  // This sample is, by construction, consumed at local iteration 0 on node 1.
  // The job's local iteration i lands at cluster time admit_round + i + 1 on
  // the global node rank, so a query at the admit round itself surfaces the
  // iter-0 access (distance 1 under strictly-after semantics: imminence 0).
  // Note inner.next_access(sample, 0) would SKIP that access — local queries
  // are strictly-after too — which is exactly why the lift offsets by one.
  const SampleId sample = sampler.minibatch(0, 0, 1, 0)[0];
  const auto cluster_view = lifted.next_access(sample, admit_round);
  ASSERT_TRUE(cluster_view.has_value());
  EXPECT_EQ(cluster_view->iter, admit_round + 1);
  EXPECT_EQ(cluster_view->node, block.first + 1);

  // Advancing the cluster clock past iter 0 must agree with the inner
  // oracle's strictly-after view of the same local timeline.
  const auto local_next = inner.next_access(sample, 0);
  ASSERT_TRUE(local_next.has_value());
  EXPECT_GT(local_next->iter, 0u);
  const auto cluster_next = lifted.next_access(sample, cluster_view->iter);
  ASSERT_TRUE(cluster_next.has_value());
  EXPECT_EQ(cluster_next->iter, admit_round + local_next->iter + 1);
  EXPECT_EQ(cluster_next->node, block.first + local_next->node);
}

// ---------------------------------------------------------------------------
// ClusterRuntime: small end-to-end acceptance run
// ---------------------------------------------------------------------------

TEST(ClusterRuntime, SharedDatasetJobsDedupAndFinishExactlyOnce) {
  telemetry::MetricRegistry::instance().reset();
  ClusterConfig config;
  config.nodes = 8;
  config.t_train_s = 2e-3;
  ClusterRuntime runtime(config);

  // Two tenants over ONE dataset (fingerprints match) plus a solo job that
  // arrives mid-run and has to queue. twin-b trains an extra epoch so it
  // outlives twin-a and overlaps the solo job's run: two distinct dataset
  // namespaces are live at once.
  runtime.submit(small_spec("twin-a", 4, 7));
  auto twin_b = small_spec("twin-b", 4, 7);
  twin_b.arrival_round = 1;
  twin_b.epochs = 3;
  runtime.submit(twin_b);
  auto solo = small_spec("solo", 4, 99);
  solo.arrival_round = 3;
  runtime.submit(solo);

  const auto result = runtime.run();
  ASSERT_EQ(result.jobs.size(), 3u);
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.state, JobState::kFinished) << job.name;
    EXPECT_EQ(job.samples_delivered, job.samples_expected) << job.name;
    EXPECT_FALSE(job.starved) << job.name;
    EXPECT_GT(job.iterations, 0u) << job.name;
  }
  EXPECT_TRUE(result.jobs[0].shared_namespace);
  EXPECT_TRUE(result.jobs[1].shared_namespace);
  EXPECT_FALSE(result.jobs[2].shared_namespace);

  // The twins stage the shared dataset once between them: aggregate PFS
  // reads stay strictly below the sum of the isolated runs.
  EXPECT_LT(result.total_pfs_reads, result.isolated_pfs_reads_sum);
  EXPECT_GT(result.total_kv_hits, 0u);
  EXPECT_EQ(result.starvation_events, 0u);
  EXPECT_GE(result.max_slowdown, 1.0);
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_EQ(result.peak_live_namespaces, 2u);
  // The solo job queued behind the twins (4 nodes free only after twin-a
  // finishes), so its admit round is after its arrival.
  EXPECT_GT(result.jobs[2].admit_round, result.jobs[2].submit_round);

  // Submitting after run() is a contract violation.
  EXPECT_THROW(runtime.submit(small_spec("late", 1)), std::logic_error);
}

TEST(ClusterRuntime, GlobalBudgetBoundsKvFootprintWithoutBreakingDelivery) {
  telemetry::MetricRegistry::instance().reset();
  ClusterConfig config;
  config.nodes = 4;
  // Tight budget: a fraction of the dataset footprint (256 x 4 KB = 1 MB).
  config.kv_budget = 256 * 1024;
  config.run_isolated_baselines = false;
  ClusterRuntime runtime(config);
  runtime.submit(small_spec("bounded", 4, 5));

  const auto result = runtime.run();
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].state, JobState::kFinished);
  EXPECT_EQ(result.jobs[0].samples_delivered, result.jobs[0].samples_expected);
  // The arbiter had to evict (or refuse) under the tight budget, and the
  // store never ends above it.
  EXPECT_GT(result.arbiter.evictions + result.arbiter.rejected_publishes, 0u);
  EXPECT_GT(result.arbiter.publishes, 0u);  // every PFS fetch routed via the arbiter
}

TEST(ClusterRuntime, BudgetedPreemptiveRunPinsArbiterCounts) {
  telemetry::MetricRegistry::instance().reset();
  ClusterConfig config;
  config.nodes = 8;
  config.policy = SchedulerPolicy::kFairSharePreemptive;
  config.preemption.min_deficit = 1.0;
  config.preemption.min_deficit_gap = 0.5;
  config.preemption.cooldown_rounds = 2;
  config.preemption.max_victims = 1;
  config.elastic_resize = false;
  // Two datasets of 256 x 4 KB = 1 MB each under a budget of 60 entries:
  // publishes, imminence-ordered evictions, refusals, checkpoint manifests
  // and restores all interleave across both namespaces.
  config.kv_budget = 60 * 4096;
  ClusterRuntime runtime(config);
  auto first = small_spec("first", 4, 5);
  first.epochs = 3;
  runtime.submit(first);
  auto second = small_spec("second", 4, 6);
  second.epochs = 3;
  runtime.submit(second);
  auto burst = small_spec("burst", 4, 5);
  burst.epochs = 1;
  burst.weight = 4.0;
  burst.arrival_round = 2;
  runtime.submit(burst);

  const auto result = runtime.run();
  ASSERT_EQ(result.jobs.size(), 3u);
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.state, JobState::kFinished) << job.name;
    EXPECT_EQ(job.samples_delivered, job.samples_expected) << job.name;
  }
  EXPECT_GE(result.preemptions, 1u);
  // Exact counts of this seed-fixed run. Evicting in another distance
  // order, protecting other entries or restoring another manifest moves at
  // least one of them.
  EXPECT_EQ(result.arbiter.evictions, 1563u);
  EXPECT_EQ(result.arbiter.protected_entries, 51851u);
  EXPECT_EQ(result.arbiter.rejected_publishes, 104u);
  EXPECT_EQ(result.total_pfs_reads, 1755u);
  EXPECT_EQ(result.residency_restored, 3u);
  EXPECT_EQ(result.residency_lost, 181u);
  EXPECT_EQ(result.digest_matches, 3u);
}

}  // namespace
}  // namespace lobster::cluster
