#include "runtime/plan_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/strfmt.hpp"

namespace lobster::runtime {

namespace {

class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = out_.size();
    out_.resize(offset + sizeof(T));
    std::memcpy(out_.data() + offset, &value, sizeof(T));
  }

  void put_ids(const std::vector<SampleId>& ids) {
    put<std::uint32_t>(static_cast<std::uint32_t>(ids.size()));
    for (const SampleId id : ids) put<std::uint32_t>(id);
  }

  void put_u32s(const std::vector<std::uint32_t>& values) {
    put<std::uint32_t>(static_cast<std::uint32_t>(values.size()));
    for (const auto v : values) put<std::uint32_t>(v);
  }

 private:
  std::vector<std::byte>& out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::byte>& bytes) : bytes_(bytes) {}

  template <typename T>
  T get(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + sizeof(T) > bytes_.size()) {
      throw std::runtime_error(strf("plan file truncated while reading %s", what));
    }
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::vector<std::uint32_t> get_u32s(const char* what, std::uint32_t max_count) {
    const auto count = get<std::uint32_t>(what);
    if (count > max_count) {
      throw std::runtime_error(strf("plan file: %s count %u exceeds limit %u", what, count,
                                    max_count));
    }
    check_fits(what, count, sizeof(std::uint32_t));
    std::vector<std::uint32_t> values(count);
    for (auto& v : values) v = get<std::uint32_t>(what);
    return values;
  }

  /// Throws unless the bytes left can hold `count` items of at least
  /// `item_bytes` each, so a false count fails before it allocates.
  void check_fits(const char* what, std::uint64_t count, std::uint64_t item_bytes) const {
    const std::size_t left = bytes_.size() - offset_;
    if (count > left / item_bytes) {
      throw std::runtime_error(strf("plan file: %s count %llu exceeds the %zu bytes left", what,
                                    static_cast<unsigned long long>(count), left));
    }
  }

  bool exhausted() const noexcept { return offset_ == bytes_.size(); }

 private:
  const std::vector<std::byte>& bytes_;
  std::size_t offset_ = 0;
};

// Upper bound on per-iteration list lengths: guards against hostile or
// corrupted length fields causing giant allocations.
constexpr std::uint32_t kMaxListLength = 1U << 24;

}  // namespace

std::vector<std::byte> serialize_plan(const Plan& plan) {
  std::vector<std::byte> bytes;
  Writer writer(bytes);
  writer.put(kPlanMagic);
  writer.put(kPlanVersion);
  writer.put<std::uint16_t>(plan.cluster_nodes);
  writer.put<std::uint16_t>(plan.gpus_per_node);
  writer.put<std::uint32_t>(plan.epochs);
  writer.put<std::uint32_t>(plan.iterations_per_epoch);
  writer.put<std::uint32_t>(plan.batch_size);
  writer.put<std::uint64_t>(plan.seed);
  writer.put<std::uint64_t>(plan.iterations.size());
  for (const auto& iteration : plan.iterations) {
    writer.put<std::uint64_t>(iteration.iter);
    for (const auto& node : iteration.nodes) {
      writer.put<std::uint32_t>(node.preproc_threads);
      writer.put_u32s(node.load_threads);
      writer.put_ids(node.prefetches);
      writer.put_ids(node.evictions);
    }
  }
  return bytes;
}

Plan deserialize_plan(const std::vector<std::byte>& bytes) {
  Reader reader(bytes);
  if (reader.get<std::uint32_t>("magic") != kPlanMagic) {
    throw std::runtime_error("plan file: bad magic (not a Lobster plan)");
  }
  const auto version = reader.get<std::uint32_t>("version");
  if (version != kPlanVersion) {
    throw std::runtime_error(strf("plan file: unsupported version %u (expected %u)", version,
                                  kPlanVersion));
  }
  Plan plan;
  plan.cluster_nodes = reader.get<std::uint16_t>("nodes");
  plan.gpus_per_node = reader.get<std::uint16_t>("gpus_per_node");
  plan.epochs = reader.get<std::uint32_t>("epochs");
  plan.iterations_per_epoch = reader.get<std::uint32_t>("iterations_per_epoch");
  plan.batch_size = reader.get<std::uint32_t>("batch_size");
  plan.seed = reader.get<std::uint64_t>("seed");
  if (plan.cluster_nodes == 0 || plan.gpus_per_node == 0) {
    throw std::runtime_error("plan file: zero cluster dimensions");
  }
  const auto iteration_count = reader.get<std::uint64_t>("iteration count");
  const std::uint64_t expected =
      static_cast<std::uint64_t>(plan.epochs) * plan.iterations_per_epoch;
  if (iteration_count != expected) {
    throw std::runtime_error(strf("plan file: iteration count %llu != epochs*I %llu",
                                  static_cast<unsigned long long>(iteration_count),
                                  static_cast<unsigned long long>(expected)));
  }
  // An iteration holds at least its id and, per node, the thread counts
  // and two empty id lists.
  const std::uint64_t min_node_bytes =
      4 + 4 + 4 * std::uint64_t{plan.gpus_per_node} + 4 + 4;
  reader.check_fits("iteration", iteration_count, 8 + plan.cluster_nodes * min_node_bytes);
  plan.iterations.reserve(iteration_count);
  for (std::uint64_t i = 0; i < iteration_count; ++i) {
    IterationPlan iteration;
    iteration.iter = reader.get<std::uint64_t>("iteration id");
    iteration.nodes.resize(plan.cluster_nodes);
    for (auto& node : iteration.nodes) {
      node.preproc_threads = reader.get<std::uint32_t>("preproc threads");
      node.load_threads = reader.get_u32s("load threads", plan.gpus_per_node);
      if (node.load_threads.size() != plan.gpus_per_node) {
        throw std::runtime_error("plan file: per-GPU thread list has wrong length");
      }
      const auto prefetches = reader.get_u32s("prefetches", kMaxListLength);
      node.prefetches.assign(prefetches.begin(), prefetches.end());
      const auto evictions = reader.get_u32s("evictions", kMaxListLength);
      node.evictions.assign(evictions.begin(), evictions.end());
    }
    plan.iterations.push_back(std::move(iteration));
  }
  if (!reader.exhausted()) {
    throw std::runtime_error("plan file: trailing bytes after the last iteration");
  }
  return plan;
}

void save_plan(const Plan& plan, const std::string& path) {
  const auto bytes = serialize_plan(plan);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_plan: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("save_plan: write failed for " + path);
}

Plan load_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("load_plan: cannot open " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("load_plan: read failed for " + path);
  return deserialize_plan(bytes);
}

}  // namespace lobster::runtime
