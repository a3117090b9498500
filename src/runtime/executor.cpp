#include "runtime/executor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <future>
#include <thread>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/payload_arena.hpp"
#include "core/perf_model.hpp"
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
                               GpuAccounting& accounting, std::vector<SampleId>& misses) {
  misses.clear();
  Bytes local_bytes = 0;
  for (const SampleId* it = first; it != last; ++it) {
    // Resident: pure accounting, with telemetry batched below so the warm
    // drain pays one metric-gate check per chunk instead of per sample.
    if (store_.contains(*it)) {
      local_bytes += catalog_.sample_bytes(*it);
      ++accounting.local_hits;
      continue;
    }
    misses.push_back(*it);
  }
  accounting.bytes.local += local_bytes;
  if (local_bytes > 0) {
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_local", local_bytes);
    LOBSTER_METRIC_COUNT("executor.local_bytes", local_bytes);
  }
  // Misses coalesce: one multi-get envelope per holder and batched PFS
  // materialization instead of a round-trip (and a heap payload) per sample.
  if (!misses.empty()) {
    execute_batch(misses.data(), misses.data() + misses.size(), iter, accounting);
  }
  accounting.claimed += static_cast<std::uint32_t>(last - first);
}

void PlanExecutor::execute_batch(const SampleId* first, const SampleId* last, IterId iter,
                                 GpuAccounting& accounting) {
  const auto deliver_remote = [&](SampleId sample, Bytes bytes) {
    accounting.bytes.remote += bytes;
    ++accounting.remote_fetches;
    LOBSTER_TRACE_INSTANT(kExecutor, "fetch_remote", bytes);
    LOBSTER_METRIC_COUNT("executor.remote_bytes", bytes);
    store_.insert(sample);
  };

  // Partition the batch: KV hits are served inline, misses with a
  // directory-recorded holder become peer-bound, the rest are cold misses
  // for the PFS batch.
  struct PeerMiss {
    SampleId sample;
    Bytes bytes;
    NodeId holder;          ///< where the next envelope asks
    std::uint64_t exclude;  ///< holders that already failed this sample
  };
  std::vector<SampleId> pfs_batch;
  std::vector<PeerMiss> pending;
  const bool routed = manager_ != nullptr && directory_ != nullptr;
  for (const SampleId* it = first; it != last; ++it) {
    const SampleId sample = *it;
    const Bytes bytes = catalog_.sample_bytes(sample);
    if (kv_store_ != nullptr) {
      auto kv = kv_store_->get(sample);  // zero-copy: shared reference
      if (kv.ok()) {
        if (!config_.verify_payloads || verify_sample_payload(sample, **kv)) {
          deliver_remote(sample, bytes);
          continue;
        }
        // Corruption quarantine (DESIGN.md §9): evict the bad entry so no
        // other worker is served it, then fall through to a fresh fetch.
        (void)kv_store_->erase(sample);
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine,
                                             config_.node, sample, 0, "kv_tier");
      }
    }
    // Without peer routing wired, a miss goes straight to the PFS.
    const NodeId holder = routed ? directory_->peer_holder(sample, config_.node, 0)
                                 : cache::CacheDirectory::kInvalidNode;
    if (holder == cache::CacheDirectory::kInvalidNode) {
      pfs_batch.push_back(sample);
    } else {
      pending.push_back(PeerMiss{sample, bytes, holder, 0});
    }
  }

  // Batched cold path: materialize straight into arena-backed buffers and
  // publish. It runs whenever envelopes are in flight, so local PFS work
  // overlaps the holders' serves, and once more at the end for the samples
  // the rounds sent to the PFS.
  std::size_t pfs_done = 0;
  const auto materialize_pending = [&] {
    for (; pfs_done < pfs_batch.size(); ++pfs_done) {
      const SampleId sample = pfs_batch[pfs_done];
      const Bytes bytes = catalog_.sample_bytes(sample);
      auto payload = make_sample_payload_shared(sample, bytes);
      accounting.bytes.pfs += bytes;
      ++accounting.pfs_fetches;
      LOBSTER_TRACE_INSTANT(kExecutor, "fetch_pfs", bytes);
      LOBSTER_METRIC_COUNT("executor.pfs_bytes", bytes);
      store_.insert(sample);
      // Best-effort publication: a capacity-bounded store may refuse (the
      // sample is still delivered locally either way).
      if (kv_store_ != nullptr) (void)kv_store_->put(sample, std::move(payload));
    }
  };
  if (pending.empty()) {
    materialize_pending();
    return;
  }

  // One causal tree per batch that reaches a peer (DESIGN.md §11): every
  // envelope, fast-fail and detour below is a child of this root, so a
  // sample's whole life, re-routes included, is one trace.
  // arg = samples routed to peers, arg2 = iteration.
  telemetry::Span fetch(telemetry::SpanKind::kFetch, config_.node, pending.size());
  fetch.set_arg2(iter);

  // Re-route rounds. Each round scatters, then gathers: it posts the first
  // slice of every holder, materializes the PFS batch, and collects the
  // envelopes in the order they were posted. A slice is consecutive
  // samples of one holder whose framed reply fits one arena class, so no
  // reply becomes an oversize heap block; a holder's next slice is posted
  // once its previous one is collected, so each holder has at most one
  // envelope, and one arena class of reply bytes, in flight. A sample that
  // fails on a holder adds it to its exclude mask and, once the round's
  // envelopes are all back, moves on to its next holder, or to the PFS
  // when none is left. Masks only grow, so the rounds end (at most one per
  // cluster node).
  struct InFlight {
    std::size_t begin;
    std::size_t end;
    DistributionManager::PostedFetch fetch;
  };
  bool rerouted = false;
  std::vector<PeerMiss> failed;
  std::vector<SampleId> ids;
  std::vector<InFlight> in_flight;
  while (!pending.empty()) {
    // Holders go out in order of first appearance. Chunks are shuffled, so
    // concurrent drain tasks spread over the holders' server threads
    // instead of all queueing on the lowest rank first.
    std::array<std::uint8_t, 64> turn{};
    std::uint64_t seen = 0;
    std::uint8_t turns = 0;
    for (const PeerMiss& miss : pending) {
      if ((seen >> miss.holder & 1) == 0) {
        seen |= 1ULL << miss.holder;
        turn[miss.holder] = turns++;
      }
    }
    std::stable_sort(pending.begin(), pending.end(), [&turn](const PeerMiss& a, const PeerMiss& b) {
      return turn[a.holder] < turn[b.holder];
    });
    // The posted ids live here, aligned with `pending`, until the round ends.
    ids.clear();
    for (const PeerMiss& miss : pending) ids.push_back(miss.sample);
    // Posts the slice starting at `begin` (an open breaker fast-fails it
    // with kPeerDown) and queues it behind the envelopes already posted.
    const auto post_slice = [&](std::size_t begin) {
      const NodeId holder = pending[begin].holder;
      std::size_t end = begin;
      std::size_t reply_bytes = DistributionManager::kMultiGetReplyHeaderBytes;
      for (; end < pending.size() && pending[end].holder == holder; ++end) {
        reply_bytes += DistributionManager::kMultiGetReplySampleBytes + pending[end].bytes;
        if (end > begin && reply_bytes > PayloadArena::kMaxClassBytes) break;
      }
      in_flight.push_back(InFlight{
          begin, end,
          manager_->post(holder, std::span(ids).subspan(begin, end - begin), iter)});
    };
    for (std::size_t begin = 0; begin < pending.size();) {
      post_slice(begin);
      const NodeId holder = pending[begin].holder;
      while (begin < pending.size() && pending[begin].holder == holder) ++begin;
    }
    materialize_pending();

    for (std::size_t next = 0; next < in_flight.size(); ++next) {
      const std::size_t begin = in_flight[next].begin;
      const std::size_t end = in_flight[next].end;
      const NodeId holder = pending[begin].holder;
      auto results = manager_->collect(std::move(in_flight[next].fetch));
      const StatusCode envelope = results.front().status().code();
      if (envelope == StatusCode::kTimeout || envelope == StatusCode::kPeerDown) {
        // Degraded routing (DESIGN.md §9): a timeout or peer-down fails the
        // whole envelope, and the holder leaves *every* later routing
        // decision, not just this batch's.
        directory_->mark_node_down(holder);
        telemetry::EventLog::instance().emit(telemetry::EventKind::kNodeDown, holder,
                                             ids[begin], iter);
      }
      for (std::size_t i = begin; i < end; ++i) {
        PeerMiss& miss = pending[i];
        const auto& result = results[i - begin];
        if (result.ok()) {
          // Verified in place where it came off the wire: delivered as is.
          deliver_remote(miss.sample, miss.bytes);
          continue;
        }
        const StatusCode cause = result.status().code();
        if (cause == StatusCode::kTimeout || cause == StatusCode::kPeerDown) {
          LOBSTER_METRIC_COUNT("executor.peer_down_reroutes", 1);
        } else if (cause == StatusCode::kCorrupt) {
          // Quarantined (never delivered); the manager's strike counter
          // fences off a holder that keeps doing it.
          quarantined_.fetch_add(1, std::memory_order_relaxed);
          LOBSTER_METRIC_COUNT("executor.quarantined_payloads", 1);
          LOBSTER_METRIC_COUNT("executor.corrupt_reroutes", 1);
          telemetry::EventLog::instance().emit(telemetry::EventKind::kQuarantine, holder,
                                               miss.sample, iter, "corrupt_reply");
        } else {
          // Authoritative not-found from a live holder, or shutdown: asking
          // again would only repeat the answer.
          pfs_batch.push_back(miss.sample);
          continue;
        }
        if (miss.exclude == 0) {  // first failed holder: degraded, once
          ++accounting.degraded_fetches;
          LOBSTER_METRIC_COUNT("executor.degraded_fetches", 1);
        }
        miss.exclude |= 1ULL << holder;
        failed.push_back(miss);
      }
      // The holder's next slice goes out once this reply is released, so a
      // holder never has more than one arena class of reply bytes alive.
      results.clear();
      if (end < pending.size() && pending[end].holder == holder) post_slice(end);
      // PFS work this round has found so far (not-found answers) runs while
      // the envelopes still in flight are served.
      if (next + 1 < in_flight.size()) materialize_pending();
    }
    in_flight.clear();
    // Route after the whole round, so a holder marked down by any of its
    // envelopes is skipped. A detour (arg2 = next holder, or kInvalidNode
    // for the PFS) precedes the attempts of the round it opens.
    pending.clear();
    for (PeerMiss& miss : failed) {
      rerouted = true;
      miss.holder = directory_->peer_holder(miss.sample, config_.node, miss.exclude);
      telemetry::Span::instant(telemetry::SpanKind::kDetour, config_.node, miss.sample,
                               miss.holder);
      if (miss.holder == cache::CacheDirectory::kInvalidNode) {
        pfs_batch.push_back(miss.sample);
      } else {
        pending.push_back(miss);
      }
    }
    failed.clear();
  }

  if (!rerouted) {
    materialize_pending();
    return;
  }
  // The closing materialize carries the samples the rounds gave up on.
  // arg = samples left to materialize, arg2 = iteration.
  telemetry::Span pfs(telemetry::SpanKind::kPfsFallback, config_.node,
                      pfs_batch.size() - pfs_done);
  pfs.set_arg2(iter);
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
                std::vector<SampleId> misses;
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
      const auto [load, preproc] = core::flat_stage_times(
          acct.bytes, core::kFlatRates, gpu_threads[g], preproc_threads, capacity_scale);
      load_max = std::max(load_max, load);
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
            GpuAccounting background;
            execute_batch(first, last, iter, background);
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
  return report;
}

}  // namespace lobster::runtime
