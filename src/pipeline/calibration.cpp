#include "pipeline/calibration.hpp"

#include <algorithm>

namespace lobster::pipeline {

namespace {

// The paper dedicates 40 GB of each node's DDR4 to the sample cache
// (§5.1); as a fraction of each dataset that is:
constexpr double kCacheFraction1K = 40.0 / 135.0;    // ~29.6 % of ImageNet-1K
constexpr double kCacheFraction22K = 40.0 / 1300.0;  // ~3.1 % of ImageNet-22K

ExperimentPreset base_preset(std::string id, data::DatasetSpec dataset, double cache_fraction,
                             std::uint16_t nodes, const std::string& model) {
  ExperimentPreset preset;
  preset.id = std::move(id);
  preset.dataset = std::move(dataset);
  preset.model = model;
  preset.cluster.nodes = nodes;
  preset.cluster.gpus_per_node = 8;
  preset.cluster.cpu_threads = 128;
  preset.cluster.cache_bytes = scaled_cache_bytes(preset.dataset, preset.seed, cache_fraction);
  return preset;
}

}  // namespace

Bytes scaled_cache_bytes(const data::DatasetSpec& dataset, std::uint64_t seed, double fraction) {
  const data::SampleCatalog catalog(dataset, seed);
  const auto bytes = static_cast<Bytes>(static_cast<double>(catalog.total_bytes()) * fraction);
  // Never below ~4 mean samples, or the cache cannot even stage one batch.
  const auto floor_bytes = static_cast<Bytes>(catalog.mean_bytes() * 4.0);
  return std::max(bytes, floor_bytes);
}

ExperimentPreset preset_imagenet1k_single_node(double scale, const std::string& model) {
  return base_preset("imagenet1k-1node", data::DatasetSpec::imagenet1k(scale), kCacheFraction1K,
                     /*nodes=*/1, model);
}

ExperimentPreset preset_imagenet22k_single_node(double scale, const std::string& model) {
  return base_preset("imagenet22k-1node", data::DatasetSpec::imagenet22k(scale),
                     kCacheFraction22K, /*nodes=*/1, model);
}

ExperimentPreset preset_imagenet22k_multi_node(double scale, std::uint16_t nodes,
                                               const std::string& model) {
  auto preset = base_preset("imagenet22k-multinode", data::DatasetSpec::imagenet22k(scale),
                            kCacheFraction22K, nodes, model);
  preset.id += '-';
  preset.id += std::to_string(nodes);
  return preset;
}

ExperimentPreset preset_imagenet1k_multi_node(double scale, std::uint16_t nodes,
                                              const std::string& model) {
  auto preset = base_preset("imagenet1k-multinode", data::DatasetSpec::imagenet1k(scale),
                            kCacheFraction1K, nodes, model);
  preset.id += '-';
  preset.id += std::to_string(nodes);
  return preset;
}

}  // namespace lobster::pipeline
