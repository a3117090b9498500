// Shared-dataset multi-job training (§2 generality scenario).
//
// Several model-selection jobs train different DNNs over the same dataset,
// time-sharing the GPUs round-robin. The node caches are shared: a sample
// staged for one job is a hit for every job, and Lobster's eviction
// consults the merged future-access view of all jobs. This demo compares
// the shared-cache hit ratio and per-job times under LRU vs Lobster
// eviction as the job count grows. The jobs run through the same
// TrainingSimulator as every paper figure, so the 1-job rows are exactly
// what simulate() reports for the preset.
//
// It exits 1 unless every job completes epochs x I iterations and Lobster's
// combined hit ratio beats LRU's at every job count.
//
//   $ ./shared_dataset_jobs [scale=512] [epochs=3]
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "pipeline/simulator.hpp"

using namespace lobster;

int main(int argc, char** argv) {
  const auto config = Config::from_args(argc, argv);
  const double scale = config.get_double("scale", 512.0);
  const auto epochs = static_cast<std::uint32_t>(config.get_int("epochs", 3));

  const char* models[] = {"resnet50", "shufflenet", "vgg11", "alexnet"};

  std::printf("Shared-dataset model-selection: J jobs round-robin over one dataset\n\n");
  Table table({"jobs", "policy", "combined_hit_%", "total_time_s", "per_job_imbalanced_%"});
  bool ok = true;
  for (const std::size_t job_count : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    double hit_ratio[2] = {0.0, 0.0};
    for (const bool lobster : {false, true}) {
      const char* policy = lobster ? "lobster" : "lru";
      pipeline::SimulationConfig sim;
      sim.preset = pipeline::preset_imagenet1k_single_node(scale);
      sim.preset.epochs = epochs;
      sim.strategy = baselines::LoaderStrategy::lobster();
      sim.strategy.eviction_policy = policy;
      sim.strategy.reuse_sweep = lobster;
      for (std::size_t j = 0; j < job_count; ++j) sim.job_models.emplace_back(models[j % 4]);
      pipeline::TrainingSimulator simulator(std::move(sim));
      const auto result = simulator.run();

      std::vector<const pipeline::RunMetrics*> jobs = {&result.metrics};
      for (const auto& metrics : result.other_job_metrics) jobs.push_back(&metrics);
      const std::uint64_t expected_iterations =
          static_cast<std::uint64_t>(epochs) * result.iterations_per_epoch;
      Seconds total_time = 0.0;
      double imbalanced = 0.0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j]->iterations() != expected_iterations) {
          std::fprintf(stderr, "FAIL: %zu jobs, %s: job %zu ran %llu of %llu iterations\n",
                       job_count, policy, j,
                       static_cast<unsigned long long>(jobs[j]->iterations()),
                       static_cast<unsigned long long>(expected_iterations));
          ok = false;
        }
        total_time += jobs[j]->total_time();
        imbalanced += jobs[j]->imbalanced_fraction();
      }
      if (jobs.size() != job_count) {
        std::fprintf(stderr, "FAIL: %zu jobs requested, %zu ran\n", job_count, jobs.size());
        ok = false;
      }
      imbalanced /= static_cast<double>(jobs.size());
      // The caches are shared, so every job's cache stats are the combined
      // totals over all jobs' accesses.
      hit_ratio[lobster ? 1 : 0] = result.metrics.hit_ratio();
      table.add_row({std::to_string(job_count), policy,
                     Table::num(100.0 * result.metrics.hit_ratio(), 1),
                     Table::num(total_time, 3), Table::num(100.0 * imbalanced, 1)});
    }
    if (hit_ratio[1] <= hit_ratio[0]) {
      std::fprintf(stderr, "FAIL: %zu jobs: Lobster hit ratio %.4f does not beat LRU's %.4f\n",
                   job_count, hit_ratio[1], hit_ratio[0]);
      ok = false;
    }
  }
  std::printf("%s\n", table.render_text().c_str());
  std::printf("More jobs sharing the cache raise reuse pressure; the merged-oracle Lobster\n"
              "policy keeps the samples *some* job needs soonest, so its advantage over LRU\n"
              "persists (and the eviction decisions stay coherent across jobs).\n");
  return ok ? 0 : 1;
}
