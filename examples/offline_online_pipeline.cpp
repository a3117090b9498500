// Lobster's two-component architecture (§4.5) end to end, with real threads:
//
//   1. OFFLINE: profile preprocessing, simulate the training run, and
//      pre-compute the plan — per-iteration loading-thread assignment per
//      GPU queue, preprocessing threads, prefetch and eviction lists.
//   2. ONLINE: two node executors enforce the plan with resizable thread
//      pools and per-GPU claim cursors, fetching remote samples from each
//      other through distribution managers over the MPI-like message bus.
//
// Exits non-zero unless every node's run is clean and delivers exactly its
// planned minibatches.
//
//   $ ./offline_online_pipeline [scale=4000] [epochs=2] [trace=out.json]
#include <cstdio>

#include "baselines/strategies.hpp"
#include "common/config.hpp"
#include "core/planner.hpp"
#include "runtime/local_cluster.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"

using namespace lobster;

int main(int argc, char** argv) {
  const auto config = Config::from_args(argc, argv);
  const double scale = config.get_double("scale", 4000.0);
  const auto epochs = static_cast<std::uint32_t>(config.get_int("epochs", 2));
  const std::string trace_path = config.get_string("trace", "");
  if (!trace_path.empty()) telemetry::Tracer::instance().set_enabled(true);

  // ---- offline component: plan a 2-node run under the full Lobster strategy.
  auto preset = pipeline::preset_imagenet1k_multi_node(scale, 2);
  preset.epochs = epochs;
  preset.cluster.gpus_per_node = 2;
  preset.cluster.cpu_threads = 16;
  preset.batch_size = 8;

  std::printf("[offline] planning %u epochs on %u nodes x %u GPUs...\n", preset.epochs,
              preset.cluster.nodes, preset.cluster.gpus_per_node);
  const auto planned = core::plan_training(preset, baselines::LoaderStrategy::lobster());
  std::printf("[offline] plan: %zu iterations, %llu prefetches, predicted hit ratio %.1f%%\n",
              planned.plan.total_iterations(),
              static_cast<unsigned long long>(planned.plan.total_prefetches()),
              100.0 * planned.simulation.metrics.hit_ratio());

  // ---- online component: one executor + distribution manager per node.
  const data::SampleCatalog catalog(preset.dataset, preset.seed);
  data::SamplerConfig sampler_config;
  sampler_config.num_samples = catalog.size();
  sampler_config.nodes = preset.cluster.nodes;
  sampler_config.gpus_per_node = preset.cluster.gpus_per_node;
  sampler_config.batch_size = preset.batch_size;
  sampler_config.seed = preset.seed;
  const data::EpochSampler sampler(sampler_config);

  runtime::LocalCluster cluster(catalog, sampler, planned.plan);

  // Residency directory for O(1) remote routing: the sampler is
  // deterministic, so which node first stages each sample (its epoch-0
  // shard) is known to everyone in advance — the §4.4 global property.
  // Later epochs reshuffle, and that is exactly when a node's miss routes
  // to the epoch-0 owner's cache instead of the PFS.
  const std::uint32_t iterations = sampler.iterations_per_epoch();
  for (NodeId n = 0; n < preset.cluster.nodes; ++n) {
    for (std::uint32_t h = 0; h < iterations; ++h) {
      for (const SampleId s : sampler.node_batch(0, h, n)) cluster.directory().add(s, n);
    }
    cluster.execute(n, runtime::ExecutorConfig{});
  }

  std::printf("[online ] executing the plan on both nodes (real threads, verified payloads)...\n");
  const std::vector<runtime::ExecutionReport> reports = cluster.run();

  bool ok = true;
  for (NodeId n = 0; n < preset.cluster.nodes; ++n) {
    const auto& report = reports[n];
    // Exactly-once check: every node delivers precisely its planned minibatches.
    std::uint64_t planned_samples = 0;
    for (const auto& iteration : planned.plan.iterations) {
      const auto epoch = static_cast<std::uint32_t>(iteration.iter / iterations);
      const auto h = static_cast<std::uint32_t>(iteration.iter % iterations);
      for (GpuId g = 0; g < preset.cluster.gpus_per_node; ++g) {
        planned_samples += sampler.minibatch(epoch, h, n, g).size();
      }
    }
    ok = ok && report.clean() && report.samples_delivered == planned_samples;
    std::uint64_t hits = 0;
    std::uint64_t remote = 0;
    std::uint64_t pfs = 0;
    for (const auto& iteration : report.iterations) {
      hits += iteration.local_hits;
      remote += iteration.remote_fetches;
      pfs += iteration.pfs_fetches;
    }
    std::printf("[online ] node %u: %llu of %llu planned samples delivered (%llu local, %llu "
                "remote, %llu PFS), clean=%s, virtual time %.3f s\n",
                n, static_cast<unsigned long long>(report.samples_delivered),
                static_cast<unsigned long long>(planned_samples),
                static_cast<unsigned long long>(hits), static_cast<unsigned long long>(remote),
                static_cast<unsigned long long>(pfs), report.clean() ? "yes" : "NO",
                report.virtual_total);
  }
  std::printf("[online ] distribution managers served %llu + %llu remote requests\n",
              static_cast<unsigned long long>(cluster.manager(0).served_requests()),
              static_cast<unsigned long long>(cluster.manager(1).served_requests()));

  if (!trace_path.empty()) {
    telemetry::Tracer::instance().set_enabled(false);
    if (telemetry::write_chrome_trace_file(trace_path)) {
      std::printf("[trace  ] written to %s — load in chrome://tracing or ui.perfetto.dev\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write trace %s\n", trace_path.c_str());
    }
  }
  if (!ok) {
    std::fprintf(stderr, "error: a node's run was not clean or missed its planned deliveries\n");
    return 1;
  }
  return 0;
}
