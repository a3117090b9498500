// Layer timing table: each row times one public call of a layer in
// isolation (DS-Analyzer's differential method), repeated `reps` times so
// the row carries a median and quartiles.
#include <stdexcept>
#include <thread>

#include "baselines/strategies.hpp"
#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "cluster/checkpoint.hpp"
#include "comm/bus.hpp"
#include "common/payload_arena.hpp"
#include "core/planner.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "perfbench.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/executor.hpp"

namespace perfbench {

using namespace lobster;

namespace {

constexpr std::size_t kReps = 15;
constexpr Bytes kRemoteBytes = 16 * 1024;    // remote_cold's sample size
constexpr Bytes kPlannedBytes = 100 * 1024;  // imagenet1k's median sample size

/// Times `ops` calls of `call(i)` per repetition; `scale` converts seconds
/// per call to the row's unit. A call returning false is a wrong result.
template <typename Call>
LayerRow time_calls(const char* name, const char* unit, double scale, std::size_t reps,
                    std::size_t ops, const char* workload, const char* moves, Call&& call) {
  std::vector<double> per_call;
  std::size_t wrong = 0;
  std::size_t next = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      if (!call(next++)) ++wrong;
    }
    per_call.push_back(seconds_since(start) * scale / static_cast<double>(ops));
  }
  if (wrong != 0) {
    throw std::runtime_error(std::string("layer table: ") + name + " returned wrong results");
  }
  return LayerRow{name,     unit,  quantile(per_call, 0.5), quantile(per_call, 0.25),
                  quantile(per_call, 0.75), reps, workload, moves};
}

/// Two ranks over one bus: rank 1 serves every sample through a
/// DistributionManager (16 KiB ids below kLarge, 100 KiB at and above it).
struct ServedPair {
  static constexpr SampleId kLarge = SampleId{1} << 24;
  comm::MessageBus bus{2};
  runtime::DistributionManager server{
      bus.endpoint(1), [](SampleId) { return true; },
      [](SampleId s) { return s >= kLarge ? kPlannedBytes : kRemoteBytes; }};
  runtime::DistributionManager client{
      bus.endpoint(0), [](SampleId) { return false; }, [](SampleId) { return kRemoteBytes; }};
  ServedPair() { server.start(); }
  ~ServedPair() { server.stop(); }
};

cluster::JobCheckpoint sample_checkpoint(std::uint64_t seed) {
  cluster::JobCheckpoint cp;
  cp.job_id = 3;
  cp.name = "bg-a";
  cp.dataset_fingerprint = seed * 0x9E3779B97F4A7C15ULL;
  cp.sampler_seed = seed;
  cp.epoch = 1;
  cp.cursor = 4096;
  cp.delivered_total = 13'824;
  cp.width = 6;
  cp.gpus_per_node = 2;
  cp.batch_size = 16;
  cp.quotas.assign(12, 16);
  std::vector<SampleId> samples;
  for (std::uint32_t i = 0; i < 1536; ++i) {
    const SampleId s = (seed + 7ULL * i) % 9216;
    cp.residency.push_back({s, static_cast<std::uint16_t>(i % 6), 48 * 1024});
    samples.push_back(s);
  }
  cp.residency_checksum = runtime::inventory_checksum(samples);
  return cp;
}

}  // namespace

std::vector<LayerRow> measure_layers(std::uint64_t seed) {
  std::vector<LayerRow> rows;
  const char* kWarm = "warm_local";
  const char* kWarmMoves = "samples_per_s, iter_ms_p50, cpu_ns_per_sample";
  const char* kCold = "remote_cold";
  const char* kColdMoves = "samples_per_s, iter_ms_p99, degraded_share";
  const char* kPlanned = "lobster_planned";
  const char* kPlannedMoves = "samples_per_s, iter_ms_p50, demand_hit_ratio";

  // ---- data: the sampler call every enqueue makes (warm_local's shape).
  {
    data::SamplerConfig config;
    config.num_samples = 4 * 256 * 400;
    config.gpus_per_node = 4;
    config.batch_size = 256;
    config.seed = seed;
    const data::EpochSampler sampler(config);
    (void)sampler.minibatch(0, 0, 0, 0);  // builds the epoch permutation
    rows.push_back(time_calls("data.minibatch_us", "us-wall", 1e6, kReps, 200, kWarm, kWarmMoves,
                              [&](std::size_t i) {
                                return sampler.minibatch(0, static_cast<std::uint32_t>(i % 400),
                                                         0, static_cast<GpuId>(i % 4))
                                           .size() == 256;
                              }));
  }

  // ---- cache: residency probe on a resident executor store.
  {
    constexpr std::uint32_t kSamples = 4 * 64 * 16;
    const data::SampleCatalog catalog(data::DatasetSpec::uniform(kSamples, 4096), seed);
    data::SamplerConfig config;
    config.num_samples = kSamples;
    config.gpus_per_node = 4;
    config.batch_size = 64;
    config.seed = seed;
    const data::EpochSampler sampler(config);
    runtime::Plan plan;
    plan.cluster_nodes = 1;
    plan.gpus_per_node = 4;
    plan.epochs = 1;
    plan.iterations_per_epoch = 16;
    plan.batch_size = 64;
    for (IterId i = 0; i < 16; ++i) {
      runtime::IterationPlan iteration;
      iteration.iter = i;
      iteration.nodes.resize(1);
      iteration.nodes[0].load_threads.assign(4, 1);
      plan.iterations.push_back(iteration);
    }
    runtime::ExecutorConfig executor_config;
    executor_config.balance.max_pool_threads = 1;
    runtime::PlanExecutor executor(executor_config, catalog, sampler, plan);
    (void)executor.run();
    rows.push_back(time_calls("cache.probe_ns", "ns-wall", 1e9, kReps, 4096, kWarm, kWarmMoves,
                              [&](std::size_t i) { return executor.has_sample(i % kSamples); }));
  }

  // ---- runtime payloads, directory routing and the arena (remote_cold).
  {
    std::vector<std::byte> buffer(kRemoteBytes);
    SampleId last = 0;
    rows.push_back(time_calls("runtime.payload.materialize_ns", "ns-wall", 1e9, kReps, 512, kCold,
                              kColdMoves, [&](std::size_t i) {
                                runtime::make_sample_payload_into(i, kRemoteBytes, buffer.data());
                                last = i;
                                return true;
                              }));
    if (!runtime::verify_sample_payload(last, buffer.data(), buffer.size())) {
      throw std::runtime_error("layer table: materialized payload does not verify");
    }
    std::vector<std::vector<std::byte>> payloads;
    for (SampleId s = 0; s < 64; ++s) payloads.push_back(runtime::make_sample_payload(s, kRemoteBytes));
    rows.push_back(time_calls("runtime.payload.verify_ns", "ns-wall", 1e9, kReps, 512, kCold,
                              kColdMoves, [&](std::size_t i) {
                                const auto& p = payloads[i % 64];
                                return runtime::verify_sample_payload(i % 64, p.data(), p.size());
                              }));
  }
  {
    constexpr SampleId kSamples = 76'800;
    cache::CacheDirectory directory(3);
    for (SampleId s = 0; s < kSamples; ++s) {
      if (s % 4 != 0) directory.add(s, static_cast<NodeId>(1 + s % 2));
    }
    rows.push_back(time_calls("cache.peer_holder_ns", "ns-wall", 1e9, kReps, 4096, kCold,
                              kColdMoves, [&](std::size_t i) {
                                const SampleId s = (i * 7919) % kSamples;
                                const NodeId want =
                                    s % 4 == 0 ? cache::CacheDirectory::kInvalidNode
                                               : static_cast<NodeId>(1 + s % 2);
                                return directory.peer_holder(s, 0, 0) == want;
                              }));
  }
  {
    rows.push_back(time_calls("common.arena_acquire_ns", "ns-wall", 1e9, kReps, 4096, kCold,
                              kColdMoves, [](std::size_t) {
                                return PayloadArena::acquire(kRemoteBytes)->size() == kRemoteBytes;
                              }));
  }

  // ---- comm: one lane round trip between two ranks.
  {
    comm::MessageBus bus(2);
    constexpr comm::Tag kPing = 1, kPong = 2;
    std::jthread echo([&bus] {
      auto& endpoint = bus.endpoint(1);
      while (true) {
        auto message = endpoint.recv(kPing);
        if (!message.ok()) return;  // bus shut down
        (void)endpoint.send(0, kPong, message.value().payload);
      }
    });
    // Declared after `echo`, so it runs first on every exit path and the
    // join cannot block on a receive that never returns.
    struct Shutdown {
      comm::MessageBus& bus;
      ~Shutdown() { bus.shutdown(); }
    } shutdown{bus};
    auto& endpoint = bus.endpoint(0);
    const comm::PayloadPtr ping = comm::make_payload(std::vector<std::byte>(64));
    rows.push_back(time_calls("comm.lane_rtt_us", "us-wall", 1e6, kReps, 200, kCold, kColdMoves,
                              [&](std::size_t) {
                                if (!endpoint.send(1, kPing, ping).ok()) return false;
                                const auto pong = endpoint.recv(kPong);
                                return pong.ok() && pong.value().bytes().size() == 64;
                              }));
  }

  // ---- distribution manager: batched and single-sample round trips.
  {
    ServedPair pair;
    std::vector<SampleId> ids(32);
    rows.push_back(time_calls("runtime.dm.multi_get_us", "us-wall", 1e6, kReps, 50, kCold,
                              kColdMoves, [&](std::size_t i) {
                                for (std::size_t k = 0; k < ids.size(); ++k) ids[k] = i * 32 + k;
                                const auto results = pair.client.fetch_remote_many(1, ids, i);
                                for (const auto& result : results) {
                                  if (!result.ok()) return false;
                                }
                                return results.size() == ids.size();
                              }));
    rows.push_back(time_calls("runtime.dm.fetch_remote_us", "us-wall", 1e6, kReps, 100, kPlanned,
                              kPlannedMoves, [&](std::size_t i) {
                                const auto got = pair.client.fetch_remote(ServedPair::kLarge + i, 1);
                                return got.ok() && got.value().size() == kPlannedBytes;
                              }));
  }

  // ---- KV tier: zero-copy put and get of one shared payload.
  {
    cache::KvStore kv(16);
    const cache::KvStore::PayloadPtr payload = PayloadArena::acquire(kPlannedBytes);
    rows.push_back(time_calls("cache.kv_put_ns", "ns-wall", 1e9, kReps, 4096, kPlanned,
                              kPlannedMoves,
                              [&](std::size_t i) { return kv.put(i, payload).ok(); }));
    const std::size_t stored = kv.size();
    rows.push_back(time_calls("cache.kv_get_ns", "ns-wall", 1e9, kReps, 4096, kPlanned,
                              kPlannedMoves,
                              [&](std::size_t i) { return kv.get(i % stored).ok(); }));
  }

  // ---- cluster: checkpoint wire codec (a cut with a 1,536-entry manifest).
  {
    const cluster::JobCheckpoint cp = sample_checkpoint(seed);
    const std::vector<std::byte> bytes = cluster::serialize(cp);
    const char* kCluster = "cluster_preempt";
    const char* kClusterMoves = "samples_per_s, cpu_ns_per_sample";
    rows.push_back(time_calls("cluster.checkpoint_encode_us", "us-wall", 1e6, kReps, 20, kCluster,
                              kClusterMoves, [&](std::size_t) {
                                return cluster::serialize(cp).size() == bytes.size();
                              }));
    rows.push_back(time_calls("cluster.checkpoint_decode_us", "us-wall", 1e6, kReps, 20, kCluster,
                              kClusterMoves, [&](std::size_t) {
                                const auto parsed = cluster::deserialize(bytes);
                                return parsed.ok() && parsed.value().residency.size() == 1536;
                              }));
  }

  // ---- pipeline: the offline planner on lobster_planned's preset.
  {
    auto preset = pipeline::preset_imagenet1k_multi_node(50.0, 2);
    preset.epochs = 3;
    preset.cluster.gpus_per_node = 2;
    preset.cluster.cpu_threads = 16;
    preset.batch_size = 32;
    preset.seed = seed;
    double predicted = 0.0;
    rows.push_back(time_calls("pipeline.plan_s", "s-wall", 1.0, 3, 1, kPlanned, "setup_s",
                              [&](std::size_t) {
                                const auto planned = core::plan_training(
                                    preset, baselines::LoaderStrategy::lobster());
                                predicted = planned.simulation.metrics.hit_ratio();
                                return !planned.plan.empty();
                              }));
    rows.push_back(LayerRow{"pipeline.predicted_hit_ratio", "ratio-virtual", predicted, predicted,
                            predicted, 1, kPlanned, "demand_hit_ratio (compare)"});
  }
  return rows;
}

}  // namespace perfbench
