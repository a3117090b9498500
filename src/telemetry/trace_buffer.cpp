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

const char* span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kFetch: return "fetch";
    case SpanKind::kAttempt: return "attempt";
    case SpanKind::kBackoff: return "backoff";
    case SpanKind::kServe: return "serve";
    case SpanKind::kDetour: return "detour";
    case SpanKind::kPfsFallback: return "pfs_fallback";
    case SpanKind::kBreakerFastFail: return "breaker_fast_fail";
    case SpanKind::kInventoryProbe: return "inventory_probe";
    case SpanKind::kMultiGet: return "multi_get";
    case SpanKind::kKindCount: break;
  }
  return "unknown";
}

}  // namespace lobster::telemetry
