#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cache/namespace.hpp"
#include "common/logging.hpp"
#include "common/payload_arena.hpp"
#include "runtime/watchdog.hpp"
#include "telemetry/events.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::runtime {

namespace {
/// Demand samples claimed per cursor fetch_add. Amortizes the atomic and
/// fills a multi-get envelope, while staying small enough that stealing
/// evens out a slow GPU within the iteration.
constexpr std::size_t kClaimChunk = 32;

/// One GPU's minibatch and its claim cursor. The run thread fills it before
/// submitting the drain tasks; workers only fetch_add the cursor, so no
/// index is ever handed out twice. The cursor sits on its own cache line.
struct ClaimSpan {
  std::vector<SampleId> samples;
  alignas(64) std::atomic<std::size_t> next{0};
};
}  // namespace

PlanExecutor::PlanExecutor(ExecutorConfig config, const data::SampleCatalog& catalog,
                           const data::EpochSampler& sampler, const Plan& plan,
                           DistributionManager* manager)
    : config_(config), catalog_(catalog), sampler_(sampler), plan_(plan), manager_(manager) {
  if (plan_.empty()) throw std::invalid_argument("PlanExecutor: empty plan");
  if (config_.node >= plan_.cluster_nodes) {
    throw std::invalid_argument("PlanExecutor: node not covered by plan");
  }
  if (const Status status = config_.balance.validate(); !status.ok()) {
    throw std::invalid_argument("PlanExecutor: " + status.to_string());
  }
}

bool PlanExecutor::has_sample(SampleId sample) const { return store_.contains(sample); }

std::unordered_set<SampleId> PlanExecutor::resident_samples() const { return store_.snapshot(); }

void PlanExecutor::drain_chunk(const SampleId* first, const SampleId* last, IterId iter,
                               GpuAccounting& accounting, std::vector<LoadRequest>& misses) {
  const FetchTier tier = miss_tier();
  misses.clear();
  Bytes local_bytes = 0;
  for (const SampleId* it = first; it != last; ++it) {
    const Bytes bytes = catalog_.sample_bytes(*it);
    // Resident: pure accounting, with telemetry batched below so the warm
    // drain pays one metric-gate check per chunk instead of per sample.
    if (store_.contains(*it)) {
      local_bytes += bytes;
      ++accounting.local_hits;
      continue;
    }
    misses.push_back(LoadRequest{*it, bytes, tier, iter});
  }
  accounting.local_bytes += local_bytes;
  if (local_bytes > 0) {
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_local", local_bytes);
    LOBSTER_METRIC_COUNT("executor.local_bytes", local_bytes);
  }
  // Misses coalesce: one multi-get envelope per holder and batched PFS
  // materialization instead of a round-trip (and a heap payload) per sample.
  if (!misses.empty()) execute_batch(misses, accounting);
  accounting.claimed += static_cast<std::uint32_t>(last - first);
}

void PlanExecutor::execute_request(const LoadRequest& request, GpuAccounting& accounting) {
  const Bytes size = request.bytes;
  // Root of this request's causal trace (DESIGN.md §11): every attempt,
  // backoff, detour, serve (on the holder's rank) and PFS fallback below
  // becomes a child span. arg = sample, arg2 = iteration, so the analyzer
  // can group degraded fetches per iteration. Local hits never get here:
  // drain_chunk accounts them inline, untraced.
  telemetry::Span fetch(telemetry::SpanKind::kFetch, config_.node, request.sample);
  fetch.set_arg2(request.iter);

  // Multi-tenant runs address the shared KV tier and directory with keys
  // namespaced to the job's dataset (namespace 0 leaves the key untouched,
  // so single-job runs are byte-identical). The manager's peer fetches stay
  // in raw sample space: peers serve their own job's samples.
  const SampleId key = job_.ns == 0 ? request.sample
                                    : cache::make_namespaced_key(job_.ns, request.sample);
  cache::KvStore::PayloadPtr payload;
  if (request.tier == FetchTier::kRemote && kv_store_ != nullptr) {
    auto kv = kv_store_->get(key);  // zero-copy: shared reference
    if (kv.ok()) {
      payload = kv.take();
      if (config_.verify_payloads && !verify_sample_payload(request.sample, *payload)) {
        // Corruption quarantine (DESIGN.md §9): evict the bad entry so no
        // other worker is served it, then fall through to a fresh fetch.
        (void)kv_store_->erase(key);
        payload.reset();
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine,
                                             config_.node, request.sample, 0, "kv_tier");
      }
    }
  }
  bool remote_served = payload != nullptr;
  // Degraded routing (DESIGN.md §9): a holder that times out or trips its
  // circuit breaker is marked down in the directory — taking it out of
  // *every* subsequent routing decision, not just this request — and the
  // fetch detours to the next surviving holder, else falls to the PFS. A
  // holder that answers with a *corrupt* payload is only excluded from this
  // request's routing (the manager's strike counter handles repeat
  // offenders) and the retry goes to the next holder.
  bool failure_detour = false;
  if (!remote_served && request.tier == FetchTier::kRemote && manager_ != nullptr &&
      directory_ != nullptr) {
    // O(1) routing: ask the directory-recorded holder, nobody else. (The
    // old directory-less fallback — polling every peer in rank order — is
    // gone: without a residency map a "remote" request goes straight to the
    // KV tier above and then the PFS below.)
    std::uint64_t exclude_mask = 0;
    NodeId holder = directory_->peer_holder(key, config_.node, exclude_mask);
    while (holder != cache::CacheDirectory::kInvalidNode) {
      // fetch_remote verifies the bytes inside its round; an ok result is
      // delivered as is.
      const auto fetched = manager_->fetch_remote(request.sample, holder);
      if (fetched.ok()) {
        remote_served = true;
        break;
      }
      const StatusCode cause = fetched.status().code();
      if (cause == StatusCode::kTimeout || cause == StatusCode::kPeerDown) {
        directory_->mark_node_down(holder);
        failure_detour = true;
        LOBSTER_METRIC_COUNT("executor.peer_down_reroutes", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kNodeDown, holder,
                                             request.sample, request.iter);
        holder = directory_->peer_holder(key, config_.node, exclude_mask);
        telemetry::Span::instant(telemetry::SpanKind::kDetour, config_.node,
                                 request.sample, holder);
        continue;  // next surviving holder (or kInvalidNode -> PFS)
      }
      if (cause == StatusCode::kCorrupt) {
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
        LOBSTER_METRIC_COUNT("executor.corrupt_reroutes", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine,
                                             holder, request.sample, request.iter,
                                             "corrupt_reply");
        failure_detour = true;
        exclude_mask |= 1ULL << holder;
        holder = directory_->peer_holder(key, config_.node, exclude_mask);
        telemetry::Span::instant(telemetry::SpanKind::kDetour, config_.node,
                                 request.sample, holder);
        continue;  // next holder with a (hopefully) clean copy
      }
      break;  // authoritative miss / shutdown: PFS fallback
    }
  }
  if (failure_detour) {
    ++accounting.degraded_fetches;
    LOBSTER_METRIC_COUNT("executor.degraded_fetches", 1);
  }
  if (remote_served) {
    accounting.remote_bytes += size;
    ++accounting.remote_fetches;
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_remote", size);
    LOBSTER_METRIC_COUNT("executor.remote_bytes", size);
  } else {
    // PFS path: materialize the sample content locally (by construction
    // this payload verifies — it is the same generator the check uses).
    // Arena-backed: the hot materialize path recycles buffers instead of
    // touching the global heap (common/payload_arena.hpp).
    telemetry::Span pfs(telemetry::SpanKind::kPfsFallback, config_.node, request.sample);
    pfs.set_arg2(request.iter);
    payload = make_sample_payload_shared(request.sample, size);
    accounting.pfs_bytes += size;
    ++accounting.pfs_fetches;
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_pfs", size);
    LOBSTER_METRIC_COUNT("executor.pfs_bytes", size);
  }

  store_.insert(request.sample);
  if (kv_store_ != nullptr && !remote_served) {
    // Best-effort publication: a capacity-bounded store may refuse (the
    // sample is still delivered locally either way). Only verified payloads
    // reach this point, so the KV tier never redistributes garbage.
    (void)kv_store_->put(key, std::move(payload));
  }
}

void PlanExecutor::execute_batch(const std::vector<LoadRequest>& requests,
                                 GpuAccounting& accounting) {
  // Partition the drained chunk: KV hits are served inline; remote misses
  // group per directory-recorded holder for ONE multi-get envelope each;
  // cold misses batch-materialize from the PFS. Anything that needs the
  // full degraded-routing state machine goes through execute_request.
  std::vector<const LoadRequest*> pfs_batch;
  std::vector<const LoadRequest*> fallback;
  std::unordered_map<NodeId, std::vector<const LoadRequest*>> groups;

  for (const auto& request : requests) {
    if (request.tier != FetchTier::kRemote) {
      pfs_batch.push_back(&request);
      continue;
    }
    const SampleId key = job_.ns == 0 ? request.sample
                                      : cache::make_namespaced_key(job_.ns, request.sample);
    if (kv_store_ != nullptr) {
      auto kv = kv_store_->get(key);
      if (kv.ok()) {
        auto payload = kv.take();
        if (!config_.verify_payloads || verify_sample_payload(request.sample, *payload)) {
          accounting.remote_bytes += request.bytes;
          ++accounting.remote_fetches;
          LOBSTER_TRACE_INSTANT(kExecutor, "fetch_remote", request.bytes);
          LOBSTER_METRIC_COUNT("executor.remote_bytes", request.bytes);
          store_.insert(request.sample);
          continue;
        }
        // Corruption quarantine, same as the single path: evict the bad
        // entry and fall through to a fresh remote/PFS fetch.
        (void)kv_store_->erase(key);
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine,
                                             config_.node, request.sample, 0, "kv_tier");
      }
    }
    if (manager_ == nullptr || directory_ == nullptr) {
      // No peer routing wired: a remote miss goes straight to the PFS,
      // exactly as in execute_request.
      pfs_batch.push_back(&request);
      continue;
    }
    const NodeId holder = directory_->peer_holder(key, config_.node, 0);
    if (holder == cache::CacheDirectory::kInvalidNode) {
      pfs_batch.push_back(&request);
      continue;
    }
    if (manager_->breaker_open(holder)) {
      // Known-down holder: the single path's fast-fail -> detour machinery
      // handles it (and counts the degradation).
      fallback.push_back(&request);
      continue;
    }
    groups[holder].push_back(&request);
  }

  // Batched cold path: materialize straight into arena-backed buffers and
  // publish — no span bookkeeping, no per-sample heap traffic. It runs
  // while each multi-get below waits on its holder, so local PFS work
  // overlaps the holder's serve, and once more at the end for the rest.
  std::size_t pfs_done = 0;
  const auto materialize_pending = [&] {
    for (; pfs_done < pfs_batch.size(); ++pfs_done) {
      const LoadRequest& request = *pfs_batch[pfs_done];
      auto payload = make_sample_payload_shared(request.sample, request.bytes);
      accounting.pfs_bytes += request.bytes;
      ++accounting.pfs_fetches;
      LOBSTER_TRACE_INSTANT(kExecutor, "fetch_pfs", request.bytes);
      LOBSTER_METRIC_COUNT("executor.pfs_bytes", request.bytes);
      store_.insert(request.sample);
      if (kv_store_ != nullptr) {
        const SampleId key = job_.ns == 0
                                 ? request.sample
                                 : cache::make_namespaced_key(job_.ns, request.sample);
        (void)kv_store_->put(key, std::move(payload));
      }
    }
  };
  // Wrapped by reference: the std::function stays allocation-free.
  const std::function<void()> while_waiting(std::cref(materialize_pending));

  // One multi-get envelope per holder slice: consecutive samples whose
  // framed reply fits one arena class, so no reply becomes an oversize heap
  // block. Per-sample failures keep the full single-fetch vocabulary and
  // drop to execute_request, which roots its own kFetch trace (the batch's
  // kMultiGet span is already closed by then).
  std::vector<SampleId> ids;
  for (auto& [holder, group] : groups) {
    for (std::size_t begin = 0, end = 0; begin < group.size(); begin = end) {
      std::size_t reply_bytes = DistributionManager::kMultiGetReplyHeaderBytes;
      for (end = begin; end < group.size(); ++end) {
        reply_bytes += DistributionManager::kMultiGetReplySampleBytes + group[end]->bytes;
        if (end > begin && reply_bytes > PayloadArena::kMaxClassBytes) break;
      }
      if (end - begin < 2) {
        // A singleton slice (a lone holder miss, or one sample over the
        // bound) gains nothing over the single-fetch path, and that path
        // keeps its richer per-sample trace tree.
        fallback.push_back(group[begin]);
        continue;
      }
      ids.clear();
      for (std::size_t i = begin; i < end; ++i) ids.push_back(group[i]->sample);
      const auto results =
          manager_->fetch_remote_many(holder, ids, group[begin]->iter, while_waiting);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const LoadRequest& request = *group[begin + i];
        const auto& result = results[i];
        if (result.ok()) {
          // Verified in place where it came off the wire: delivered as is.
          accounting.remote_bytes += request.bytes;
          ++accounting.remote_fetches;
          LOBSTER_TRACE_INSTANT(kExecutor, "fetch_remote", request.bytes);
          LOBSTER_METRIC_COUNT("executor.remote_bytes", request.bytes);
          store_.insert(request.sample);
          continue;
        }
        const StatusCode cause = result.status().code();
        if (cause == StatusCode::kNotFound) {
          // Authoritative miss from a live holder: the single path would
          // only ask the same holder again before falling to the PFS.
          pfs_batch.push_back(&request);
          continue;
        }
        if (cause == StatusCode::kCorrupt) {
          // The batched reply carried garbage for this sample: quarantine
          // it (never delivered) and re-route via the single path, whose
          // routing excludes repeat offenders through the manager's strike
          // counter.
          quarantined_.fetch_add(1, std::memory_order_relaxed);
          LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
          LOBSTER_METRIC_COUNT("executor.corrupt_reroutes", 1);
          telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine, holder,
                                               request.sample, request.iter,
                                               "corrupt_reply");
        }
        // Timeout / peer-down / shutdown: the single path applies
        // mark-node-down, detours, and the PFS fallback per sample.
        fallback.push_back(&request);
      }
    }
  }

  for (const LoadRequest* request : fallback) execute_request(*request, accounting);
  materialize_pending();
}

ExecutionReport PlanExecutor::run() {
  LOBSTER_TRACE_SPAN_ARG(kExecutor, "executor.run", config_.node);
  ExecutionReport report;
  const std::uint16_t gpus = plan_.gpus_per_node;
  const std::uint32_t I = plan_.iterations_per_epoch;

  const std::uint32_t hw_threads =
      config_.balance.max_pool_threads > 0
          ? config_.balance.max_pool_threads
          : std::max(1U, std::thread::hardware_concurrency());
  ThreadPool loading_pool(1);
  ThreadPool preproc_pool(1);
  const std::uint32_t world =
      static_cast<std::uint32_t>(plan_.cluster_nodes) * gpus;
  const std::uint32_t flat_base = static_cast<std::uint32_t>(config_.node) * gpus;
  throughput_.assign(gpus, metrics::ThroughputWindow());
  feedback_ = core::IterationFeedback{};

  // Hoisted across iterations so steady-state iterations do not allocate.
  // Each GPU's minibatch is one span with one claim cursor (DESIGN.md §8).
  std::vector<ClaimSpan> spans(gpus);
  std::vector<GpuAccounting> accounting(gpus);
  std::mutex merge_mutex;
  std::vector<std::future<void>> futures;
  std::vector<std::future<void>> preproc_futures;
  std::vector<std::future<void>> prefetch_futures;

  for (const auto& iteration : plan_.iterations) {
    LOBSTER_TRACE_SPAN_ARG(kExecutor, "iteration", iteration.iter);
    const auto iter_started = std::chrono::steady_clock::now();
    // The hook sees last iteration's measurements and may answer with an
    // active rebalance decision for THIS iteration (balancer harnesses run
    // the FeedbackBalancer / RebalanceBarrier exchange inside it).
    core::RebalancePlan rebalance;
    if (config_.iteration_hook) config_.iteration_hook(iteration.iter, feedback_, rebalance);
    // Iteration boundary = the checkpoint consistency point (DESIGN.md §13):
    // the previous iteration's delivery fully landed, this one has not
    // touched the tier. Watchdog paused across the cut so checkpoint I/O
    // can neither fire a spurious stall nor enter the deadline median.
    if (config_.checkpoint_hook) {
      WatchdogPause pause_guard(watchdog_);
      if (config_.checkpoint_hook(iteration.iter)) ++report.checkpoints;
    }
    if (watchdog_ != nullptr) watchdog_->begin_iteration(iteration.iter);
    const auto& node_plan = iteration.nodes.at(config_.node);
    const auto epoch = static_cast<std::uint32_t>(iteration.iter / I);
    const auto h = static_cast<std::uint32_t>(iteration.iter % I);

    // Quota mode: an active plan whose quotas cover the cluster re-splits
    // this iteration's global sample block by contiguous prefix-sum slices
    // (sampler quota_slice); quotas always partition the block, so
    // exactly-once delivery is preserved cluster-wide.
    const bool quota_mode = rebalance.active && rebalance.batch_quotas.size() == world;
    std::uint64_t quota_offset = 0;
    if (quota_mode) {
      for (std::uint32_t d = 0; d < flat_base; ++d) quota_offset += rebalance.batch_quotas[d];
    }

    // Effective per-GPU thread counts: the plan's static assignment unless
    // the rebalance decision overrides it.
    std::vector<std::uint32_t> gpu_threads(gpus, 1);
    for (GpuId g = 0; g < gpus; ++g) {
      if (g < node_plan.load_threads.size()) {
        gpu_threads[g] = std::max<std::uint32_t>(node_plan.load_threads[g], 1);
      }
    }
    if (rebalance.active && rebalance.load_threads.size() >= flat_base + gpus) {
      for (GpuId g = 0; g < gpus; ++g) {
        gpu_threads[g] = std::max<std::uint32_t>(rebalance.load_threads[flat_base + g], 1);
      }
    }

    // Capacity schedule for this node (thermal throttle / co-tenant /
    // degraded NIC): scales every virtual-time rate below.
    const double capacity_scale =
        std::max(config_.capacity.scale_at(static_cast<double>(iteration.iter)), 1e-3);

    IterationExecution stats;
    stats.iter = iteration.iter;
    stats.capacity_scale = capacity_scale;
    stats.rebalanced = quota_mode;

    // ---- enforce the plan's thread assignment (resize is a no-op when the
    // planned size is unchanged — no thundering-herd wakeups). Planned
    // threads are enforced as per-GPU drain-task shares and in the
    // virtual-time model; the OS-thread count is additionally capped at the
    // core budget so oversubscription never turns planned bandwidth into
    // context-switch overhead.
    const std::uint32_t load_threads_total = std::max<std::uint32_t>(
        1, std::accumulate(gpu_threads.begin(), gpu_threads.end(), 0U));
    const std::uint32_t preproc_threads = std::max<std::uint32_t>(1, node_plan.preproc_threads);
    {
      LOBSTER_TRACE_SPAN_ARG(kExecutor, "resize_pools", load_threads_total);
      loading_pool.resize(std::min(load_threads_total, hw_threads));
      preproc_pool.resize(std::min(preproc_threads, hw_threads));
      LOBSTER_TRACE_COUNTER(kPool, "load_pool_size", load_threads_total);
      LOBSTER_TRACE_COUNTER(kPool, "preproc_pool_size", preproc_threads);
    }
    stats.load_pool_size = load_threads_total;
    stats.preproc_pool_size = preproc_threads;

    // ---- enqueue: fill each GPU's span and reset its cursor. No sample is
    // classified here; the claiming worker does that after the prefetch
    // join below, so a hit never depends on how far a prefetch got.
    {
      LOBSTER_TRACE_SPAN(kExecutor, "enqueue");
      for (GpuId g = 0; g < gpus; ++g) {
        if (quota_mode) {
          const std::uint32_t quota = rebalance.batch_quotas[flat_base + g];
          spans[g].samples = sampler_.quota_slice(epoch, h, quota_offset, quota);
          quota_offset += quota;
        } else {
          spans[g].samples = sampler_.minibatch(epoch, h, config_.node, g);
        }
        spans[g].next.store(0, std::memory_order_relaxed);
        stats.demand_requests += static_cast<std::uint32_t>(spans[g].samples.size());
      }
    }

    // The previous iteration's prefetches ran on the loading pool overlapped
    // with the enqueue above; join them before draining so plan residency
    // ordering (prefetches land before the next eviction sweep) holds.
    {
      LOBSTER_TRACE_SPAN(kExecutor, "prefetch_join");
      for (auto& f : prefetch_futures) f.get();
      prefetch_futures.clear();
    }

    // ---- drain: the planned per-GPU thread count is the number of tasks
    // that start on that GPU's cursor. A task claims kClaimChunk samples per
    // fetch_add from its home span, then steals chunks from the other spans
    // once home runs dry. Accounting always goes to the span's GPU, never to
    // the thief's, and is merged once per task.
    {
      LOBSTER_TRACE_SPAN_ARG(kExecutor, "drain", stats.demand_requests);
      futures.clear();
      // Surplus drain tasks beyond the pool's OS threads never run
      // concurrently — they'd only wake a worker to find every cursor
      // exhausted — so cap the per-GPU task count at the real pool size. The
      // planned share still drives the virtual-time model and stats.
      const std::uint32_t pool_threads = std::min(load_threads_total, hw_threads);
      const IterId iter = iteration.iter;
      for (GpuId home = 0; home < gpus; ++home) {
        const std::uint32_t per_gpu = std::min(pool_threads, gpu_threads[home]);
        for (std::uint32_t t = 0; t < per_gpu; ++t) {
          futures.push_back(loading_pool.submit(
              [this, home, gpus, iter, &spans, &accounting, &merge_mutex] {
                std::vector<GpuAccounting> local(gpus);
                std::vector<LoadRequest> misses;
                for (std::uint16_t k = 0; k < gpus; ++k) {
                  const auto g = static_cast<GpuId>((home + k) % gpus);
                  ClaimSpan& span = spans[g];
                  const std::size_t size = span.samples.size();
                  for (std::size_t begin = span.next.fetch_add(kClaimChunk,
                                                               std::memory_order_relaxed);
                       begin < size;
                       begin = span.next.fetch_add(kClaimChunk, std::memory_order_relaxed)) {
                    const SampleId* first = span.samples.data() + begin;
                    drain_chunk(first, first + std::min(kClaimChunk, size - begin), iter,
                                local[g], misses);
                  }
                }
                const std::scoped_lock lock(merge_mutex);
                for (GpuId g = 0; g < gpus; ++g) accounting[g].merge(local[g]);
              }));
        }
      }
      for (auto& f : futures) f.get();

      // Exactly-once by construction: claimed chunks are disjoint and cover
      // each span, so these checks only catch a broken claim loop.
      for (GpuId g = 0; g < gpus; ++g) {
        const std::uint64_t claimed = accounting[g].claimed;
        const std::uint64_t planned = spans[g].samples.size();
        report.samples_delivered += claimed;
        report.duplicate_deliveries += claimed > planned ? claimed - planned : 0;
        report.lost_deliveries += planned > claimed ? planned - claimed : 0;
        if (claimed != planned) {
          log::warn("executor: iteration %llu gpu %u claimed %llu of %llu samples",
                    static_cast<unsigned long long>(iter), static_cast<unsigned>(g),
                    static_cast<unsigned long long>(claimed),
                    static_cast<unsigned long long>(planned));
        }
      }
    }

    // ---- preprocessing: one batch task per GPU on the preprocessing pool
    {
      LOBSTER_TRACE_SPAN(kExecutor, "preproc");
      preproc_futures.clear();
      std::atomic<std::uint64_t> preproc_checksum{0};
      for (GpuId g = 0; g < gpus; ++g) {
        preproc_futures.push_back(preproc_pool.submit([g, &preproc_checksum] {
          // Token CPU work standing in for decode+augment.
          std::uint64_t acc = g;
          for (int i = 0; i < 256; ++i) acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
          preproc_checksum.fetch_add(acc, std::memory_order_relaxed);
        }));
      }
      for (auto& f : preproc_futures) f.get();
    }

    // ---- virtual-time accounting (all rates scaled by the node's capacity
    // schedule, so a throttled node is slower in exactly the modeled way)
    Seconds load_max = 0.0;
    Seconds preproc_max = 0.0;
    feedback_.iter = iteration.iter;
    feedback_.devices.clear();
    auto& registry = telemetry::MetricRegistry::instance();
    for (GpuId g = 0; g < gpus; ++g) {
      const auto& acct = accounting[g];
      const double threads = gpu_threads[g];
      const Seconds load = (static_cast<double>(acct.local_bytes) / config_.rates.local_bps +
                            static_cast<double>(acct.remote_bytes) / config_.rates.remote_bps +
                            static_cast<double>(acct.pfs_bytes) / config_.rates.pfs_bps) /
                           (threads * capacity_scale);
      load_max = std::max(load_max, load);
      const Bytes gpu_bytes = acct.local_bytes + acct.remote_bytes + acct.pfs_bytes;
      const Seconds preproc = static_cast<double>(gpu_bytes) /
                              (config_.rates.preproc_bps * preproc_threads * capacity_scale);
      preproc_max = std::max(preproc_max, preproc);
      stats.local_hits += acct.local_hits;
      stats.remote_fetches += acct.remote_fetches;
      stats.pfs_fetches += acct.pfs_fetches;
      stats.degraded_fetches += acct.degraded_fetches;

      // Per-GPU feedback for the balancer: pipeline time (NOT clamped by
      // t_train), so the derived samples/s is the device's delivery
      // capability and stays quota-independent — shrink a slow GPU's quota
      // and its measured rate holds steady instead of chasing the quota.
      const Seconds busy = load + preproc;
      const std::uint32_t flat = flat_base + g;
      feedback_.devices.push_back(core::DeviceFeedback{flat, acct.claimed, busy});
      throughput_[g].record(acct.claimed, busy);
      registry.gauge("executor.gpu/" + std::to_string(flat) + "/throughput")
          .set(throughput_[g].windowed_rate());
      accounting[g] = GpuAccounting{};  // reset for the next iteration
    }
    stats.virtual_load = load_max;
    stats.virtual_preproc = preproc_max;
    stats.virtual_duration = std::max(config_.t_train, load_max + preproc_max);

    report.degraded_fetches += stats.degraded_fetches;
    report.virtual_total += stats.virtual_duration;

    // ---- plan-driven cache maintenance
    LOBSTER_TRACE_SPAN_ARG(kExecutor, "cache_maintenance",
                           node_plan.evictions.size() + node_plan.prefetches.size());
    for (const SampleId s : node_plan.evictions) store_.erase(s);
    LOBSTER_METRIC_COUNT("executor.plan_evictions", node_plan.evictions.size());

    // Prefetches go to the loading pool in kClaimChunk slices, each through
    // the batched miss path a drain chunk uses (one multi-get envelope per
    // holder, batched PFS materialize), and overlap the next iteration's
    // enqueue (joined there). Their tier accounting is background work and
    // deliberately not part of the demand-path virtual time.
    const std::vector<SampleId>& prefetches = node_plan.prefetches;
    stats.prefetch_requests = static_cast<std::uint32_t>(prefetches.size());
    for (std::size_t begin = 0; begin < prefetches.size(); begin += kClaimChunk) {
      const SampleId* first = prefetches.data() + begin;
      const SampleId* last = first + std::min(kClaimChunk, prefetches.size() - begin);
      prefetch_futures.push_back(
          loading_pool.submit([this, first, last, iter = iteration.iter] {
            std::vector<LoadRequest> requests;
            requests.reserve(static_cast<std::size_t>(last - first));
            for (const SampleId* it = first; it != last; ++it) {
              requests.push_back(LoadRequest{*it, catalog_.sample_bytes(*it), miss_tier(), iter});
            }
            GpuAccounting background;
            execute_batch(requests, background);
          }));
    }

    if (watchdog_ != nullptr) watchdog_->end_iteration();
    stats.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 iter_started)
                       .count();
    report.iterations.push_back(stats);
  }
  for (auto& f : prefetch_futures) f.get();

  report.payload_failures = payload_failures_.load(std::memory_order_relaxed);
  report.quarantined_payloads = quarantined_.load(std::memory_order_relaxed);
  LOBSTER_METRIC_COUNT("executor.samples_delivered", report.samples_delivered);
  if (!job_.metric_prefix.empty()) {
    // Per-tenant slice of the same aggregates (dynamic names can't use the
    // per-literal metric macros).
    auto& registry = telemetry::MetricRegistry::instance();
    registry.counter(job_.metric_prefix + "samples_delivered").add(report.samples_delivered);
    registry.counter(job_.metric_prefix + "degraded_fetches").add(report.degraded_fetches);
    registry.counter(job_.metric_prefix + "quarantined_payloads")
        .add(report.quarantined_payloads);
  }
  return report;
}

}  // namespace lobster::runtime
