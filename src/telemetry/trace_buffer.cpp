#include "telemetry/trace_buffer.hpp"

namespace lobster::telemetry {

const char* category_name(Category category) noexcept {
  switch (category) {
    case Category::kCommon: return "common";
    case Category::kSim: return "sim";
    case Category::kStorage: return "storage";
    case Category::kCache: return "cache";
    case Category::kPrefetch: return "prefetch";
    case Category::kPipeline: return "pipeline";
    case Category::kPool: return "pool";
    case Category::kExecutor: return "executor";
    case Category::kRuntime: return "runtime";
    case Category::kBench: return "bench";
    case Category::kTest: return "test";
    case Category::kCategoryCount: break;
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

void TraceBuffer::snapshot(std::vector<TraceEvent>& out) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t n = head < cap ? head : cap;
  out.reserve(out.size() + static_cast<std::size_t>(n));
  for (std::uint64_t i = head - n; i < head; ++i) {
    out.push_back(slots_[static_cast<std::size_t>(i & mask_)]);
  }
}

}  // namespace lobster::telemetry
