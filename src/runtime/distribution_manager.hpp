// Distribution manager (§4.5).
//
// "A key part of the online runtime is the distribution manager,
// responsible to handle the distributed operations across the compute nodes
// using MPI. These operations provide locally cached training samples to
// and request training samples from the remote compute nodes."
//
// One DistributionManager runs per node over the comm bus: a server thread
// answers peers' inventory and multi-get requests from the node's local
// store. Every sample fetch, many samples (fetch_remote_many, the one the
// executor uses) or one (fetch_remote), is the same request/reply round:
// one multi-get envelope per attempt, split into post (send attempt 0) and
// collect (wait, retry, decode, verify), so a caller can have envelopes to
// several holders in flight at once. Sample payloads are synthesized deterministically
// from the sample id, so receivers can verify integrity end to end.
//
// Fault tolerance (DESIGN.md §9): the round is deadline-based — each
// attempt waits FetchPolicy::timeout for the reply, then retries with
// bounded exponential backoff, and finally reports StatusCode::kTimeout. A
// per-peer circuit breaker turns repeated timeouts into an immediate
// StatusCode::kPeerDown (no waiting at all) until a cooldown elapses; the
// first successful round-trip after that re-closes the breaker. Every retry
// uses a fresh request id, so a late reply to an abandoned attempt lands on
// an orphaned tag and can never satisfy a newer request.
//
// Corruption quarantine: a reply that fails payload verification reports
// StatusCode::kCorrupt immediately — never retried against the same peer
// (the caller routes to the *next* holder instead) — and charges a strike
// against that peer; corrupt_strike_threshold consecutive strikes open its
// breaker exactly like timeouts do, so a peer serving garbage is fenced
// off, not polled forever.
//
// Recovery (DESIGN.md §9 "Recovery model"): fetch_inventory() asks a peer
// for the full list of samples it currently serves. It deliberately
// bypasses the open-breaker fast-fail — it *is* the half-open probe the
// RecoveryManager uses to detect a rejoined node — while still feeding the
// breaker accounting, so a successful inventory round-trip re-closes the
// breaker and fires the on_breaker_close callback.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "comm/bus.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::runtime {

/// Order-independent checksum over an inventory id list. Guards the rejoin
/// inventory exchange AND the checkpoint residency manifest (DESIGN.md
/// §13): any id list that drives directory mutations must be verifiable
/// end to end.
std::uint64_t inventory_checksum(const std::vector<SampleId>& samples) noexcept;

/// Deterministic synthetic payload for a sample (the first 16 bytes carry
/// the id and the length; the rest is a keyed pattern with one splitmix64
/// per 64-byte line).
std::vector<std::byte> make_sample_payload(SampleId sample, Bytes size);

/// Writes the payload for `sample` directly into `dst` (`size` bytes) —
/// the allocation-free form the serve/materialize hot paths use.
void make_sample_payload_into(SampleId sample, Bytes size, std::byte* dst);

/// Arena-backed payload (common/payload_arena.hpp): recycled buffer, no
/// global-heap traffic on the hot path, shared zero-copy through KvStore
/// and the comm bus.
comm::PayloadPtr make_sample_payload_shared(SampleId sample, Bytes size);

/// Validates a payload produced by make_sample_payload.
bool verify_sample_payload(SampleId sample, const std::vector<std::byte>& payload);

/// Streaming overload: verifies in place (line-wise compare), no allocation.
bool verify_sample_payload(SampleId sample, const std::byte* data, std::size_t size);

/// One sample's bytes inside a retained multi-get reply: the reply buffer
/// plus the sample's offset and size in it. Holding the view keeps the whole
/// reply alive; nothing is copied.
class PayloadView {
 public:
  PayloadView(comm::PayloadPtr reply, std::size_t offset, std::size_t size) noexcept
      : reply_(std::move(reply)), offset_(offset), size_(size) {}

  const std::byte* data() const noexcept { return reply_->data() + offset_; }
  std::size_t size() const noexcept { return size_; }
  const std::byte* begin() const noexcept { return data(); }
  const std::byte* end() const noexcept { return data() + size_; }
  const comm::PayloadPtr& reply() const noexcept { return reply_; }

 private:
  comm::PayloadPtr reply_;
  std::size_t offset_;
  std::size_t size_;
};

/// Timeout / retry / circuit-breaker knobs for the fetch round. The defaults
/// suit the in-process bus (microsecond round-trips): generous enough that
/// a healthy-but-busy peer never trips the breaker, tight enough that a
/// dead peer costs well under a second before degraded routing kicks in.
struct FetchPolicy {
  /// Per-attempt reply deadline.
  Seconds timeout = 0.25;
  /// Extra attempts after the first (total attempts = 1 + max_retries).
  std::uint32_t max_retries = 2;
  /// First retry waits backoff_base; each further retry doubles it...
  Seconds backoff_base = 0.01;
  /// ...capped here.
  Seconds backoff_cap = 0.2;
  /// Consecutive timeouts to one peer that open its circuit breaker.
  std::uint32_t breaker_threshold = 3;
  /// Consecutive corrupt replies from one peer that open its breaker (a
  /// separate strike counter: one flaky payload re-routes, a pattern of
  /// them fences the peer off).
  std::uint32_t corrupt_strike_threshold = 2;
  /// While open, fetches to that peer fail instantly with kPeerDown; after
  /// the cooldown one probe attempt is allowed through (half-open).
  Seconds breaker_cooldown = 1.0;
};

class DistributionManager {
 public:
  /// Reply tags live in a dedicated window: base + (request_id masked to 30
  /// bits). Request ids themselves are 64-bit monotonic (no reuse within any
  /// feasible run), and the mask keeps every reply tag inside
  /// [kResponseTagBase, kResponseTagBase + 2^30), so no soak length can
  /// collide a response tag with kFetchRequestTag or comm::kAnyTag the way
  /// the old `base + uint32 counter` arithmetic eventually would.
  static constexpr comm::Tag kResponseTagBase = 0x80000000;
  static constexpr std::uint64_t kResponseTagMask = 0x3FFFFFFF;

  static constexpr comm::Tag response_tag(std::uint64_t request_id) noexcept {
    return kResponseTagBase + static_cast<comm::Tag>(request_id & kResponseTagMask);
  }

  /// Multi-get reply framing: a fixed header, then per sample an
  /// [id][found_size] pair followed by the payload bytes. Callers size
  /// batches with it so a reply stays within one arena class.
  static constexpr std::size_t kMultiGetReplyHeaderBytes = 16;
  static constexpr std::size_t kMultiGetReplySampleBytes = 12;

  /// `has_sample` answers whether this node currently caches a sample;
  /// `sample_size` gives its payload size. Both must be thread-safe.
  DistributionManager(comm::Endpoint& endpoint,
                      std::function<bool(SampleId)> has_sample,
                      std::function<Bytes(SampleId)> sample_size,
                      FetchPolicy policy = {});
  ~DistributionManager();

  DistributionManager(const DistributionManager&) = delete;
  DistributionManager& operator=(const DistributionManager&) = delete;

  /// Starts the server thread answering peers' requests.
  void start();

  /// Stops serving (idempotent). The comm bus must still be alive.
  void stop();

  /// Fetch of `sample` from `holder`'s cache: the multi-get round with one
  /// id (post then collect; its kMultiGet carries arg2 = 0 and its kAttempt
  /// spans arg = batch size 1), traced under the caller's span, with the
  /// payload copied out. The runtime itself fetches
  /// through fetch_remote_many only; this single-sample form serves
  /// microbenchmarks and tests. Failure causes:
  ///   kNotFound  — the peer answered: it no longer holds the sample
  ///                (raced with an eviction); authoritative, do not retry;
  ///   kTimeout   — no reply within the retry budget (peer slow or dead);
  ///   kPeerDown  — this peer's circuit breaker is open: failed instantly;
  ///   kShutdown  — the bus is shutting down;
  ///   kCorrupt   — a reply arrived but failed payload verification; the
  ///                peer got a strike and this fetch must be routed to a
  ///                *different* holder (or the PFS), never retried here.
  Result<std::vector<std::byte>> fetch_remote(SampleId sample, comm::Rank holder);

  /// Batched fetch: all of `samples` from `holder` in ONE request/reply
  /// round-trip per attempt, i.e. collect(post(holder, samples, iter)). The
  /// reply carries per-sample status, so the failure vocabulary is
  /// fetch_remote's, per sample:
  ///   kNotFound — the peer answered: it no longer holds that sample;
  ///   kCorrupt  — that sample's bytes failed verification (one breaker
  ///               strike per corrupted *reply*, not per sample), or the
  ///               reply's framing was mangled;
  ///   kTimeout / kPeerDown / kShutdown — whole-envelope failures, applied
  ///               to every sample in the batch.
  /// Results align index-for-index with `samples`. A successful result is a
  /// view of the reply, verified in place where it came off the wire: the
  /// caller neither copies nor re-verifies it. The round is traced as a
  /// kMultiGet span (arg = holder, arg2 = iter) over its kAttempt spans: a
  /// child of the caller's current span, or a root when called outside any
  /// span. The open-breaker fast-fail happens before, outside that span, as
  /// a kBreakerFastFail instant under the caller's.
  std::vector<Result<PayloadView>> fetch_remote_many(comm::Rank holder,
                                                     const std::vector<SampleId>& samples,
                                                     IterId iter);

  /// One multi-get envelope between post() and collect(): the holder, the
  /// ids, the request id in flight and the envelope's spans. Move-only; the
  /// caller keeps the posted ids alive until collect().
  class PostedFetch {
    friend class DistributionManager;
    comm::Rank holder_ = 0;
    std::span<const SampleId> samples_;
    std::uint64_t request_id_ = 0;  ///< the attempt in flight
    /// Not ok once the envelope has failed without a reply to wait for
    /// (open breaker, bus shutdown): collect() then reports it per sample.
    Status failed_;
    telemetry::Span multi_;    ///< kMultiGet, detached: envelopes overlap
    telemetry::Span attempt_;  ///< the kAttempt in flight, detached
  };

  /// Sends attempt 0 of one envelope asking `holder` for `samples` (not
  /// empty) and returns without waiting. An open breaker fast-fails it
  /// with kPeerDown, as fetch_remote_many describes. The kMultiGet span is
  /// a child of the calling thread's current span (the executor's
  /// per-batch kFetch root) but is never installed as current, so
  /// envelopes in flight together are siblings; the holder's kServe
  /// parents to the attempt that posted it.
  PostedFetch post(comm::Rank holder, std::span<const SampleId> samples, IterId iter);

  /// Waits for `posted`'s reply, then decodes and verifies it in place. On
  /// a timeout it runs the remaining FetchPolicy::max_retries attempts
  /// itself, so an envelope costs at most 1 + max_retries attempts. Results
  /// align with the posted ids; fetch_remote_many describes them.
  std::vector<Result<PayloadView>> collect(PostedFetch posted);

  /// The samples `holder` currently serves, checksummed end to end. Used by
  /// the RecoveryManager both as the half-open liveness probe for a down
  /// peer (this call skips the open-breaker fast-fail) and to replay the
  /// peer's residency into the CacheDirectory on rejoin. Same failure
  /// causes as fetch_remote; success re-closes the peer's breaker.
  Result<std::vector<SampleId>> fetch_inventory(comm::Rank holder);

  /// Serve-side source for fetch_inventory replies (e.g. the node's
  /// KvStore / resident-set snapshot). Unset => peers get an empty
  /// inventory, which still proves liveness. Set before start().
  void set_inventory_source(std::function<std::vector<SampleId>()> source) {
    inventory_source_ = std::move(source);
  }

  /// Invoked (from the fetching thread) whenever a peer's breaker
  /// transitions open -> closed, i.e. a half-open probe succeeded. The
  /// RecoveryManager hangs its rejoin pipeline here. Keep it cheap; it runs
  /// on the fetch hot path. Set before start().
  void set_on_breaker_close(std::function<void(comm::Rank)> callback) {
    on_breaker_close_ = std::move(callback);
  }

  const FetchPolicy& policy() const noexcept { return policy_; }

  /// True while `holder`'s circuit breaker is open (fetches fail fast).
  bool breaker_open(comm::Rank holder) const;

  std::uint64_t served_requests() const noexcept { return served_.load(); }
  std::uint64_t failed_requests() const noexcept { return failed_.load(); }
  // Fault-path accounting (process-lifetime, also mirrored to telemetry).
  std::uint64_t retries() const noexcept { return retries_.load(); }
  std::uint64_t timeouts() const noexcept { return timeouts_.load(); }
  std::uint64_t breaker_opens() const noexcept { return breaker_opens_.load(); }
  std::uint64_t breaker_closes() const noexcept { return breaker_closes_.load(); }
  /// Replies that arrived but failed verification (any peer).
  std::uint64_t corrupt_replies() const noexcept { return corrupt_replies_.load(); }
  /// Serve-side reply sends that failed (bus shutdown mid-reply). Once
  /// silently discarded; now counted and event-logged so a requester's
  /// timeout can be matched to the server's failed send.
  std::uint64_t serve_send_failures() const noexcept { return serve_send_failures_.load(); }

 private:
  /// Per-peer failure state. Lock-free: fetches from worker threads race
  /// only on these atomics. `open_until_ns` is a steady_clock deadline in
  /// nanoseconds (0 = closed).
  struct Breaker {
    std::atomic<std::uint32_t> consecutive_timeouts{0};
    std::atomic<std::uint32_t> consecutive_corrupts{0};
    std::atomic<std::int64_t> open_until_ns{0};
  };

  void serve_loop();
  void serve_inventory(const comm::Message& request_message, std::uint64_t request_id);
  void serve_multi_get(const comm::Message& request_message, std::uint64_t request_id);
  void count_serve_send_failure(const Status& sent, comm::Rank requester,
                                std::uint64_t request_id);
  /// Counts and traces a breaker fast-fail; returns the kPeerDown status.
  Status fast_fail(comm::Rank holder, SampleId sample);
  /// Sends one attempt of `posted` under a fresh request id and a fresh
  /// kAttempt span; a failed send ends the envelope.
  void send_attempt(PostedFetch& posted);
  void record_success(comm::Rank holder);
  void record_timeout(comm::Rank holder);
  void record_corrupt(comm::Rank holder);
  void open_breaker(comm::Rank holder);

  comm::Endpoint& endpoint_;
  std::function<bool(SampleId)> has_sample_;
  std::function<Bytes(SampleId)> sample_size_;
  std::function<std::vector<SampleId>()> inventory_source_;
  std::function<void(comm::Rank)> on_breaker_close_;
  FetchPolicy policy_;
  std::vector<Breaker> breakers_;  // sized world_size, never resized
  std::jthread server_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> breaker_closes_{0};
  std::atomic<std::uint64_t> corrupt_replies_{0};
  std::atomic<std::uint64_t> serve_send_failures_{0};
  std::atomic<std::uint64_t> next_request_id_{1};
};

}  // namespace lobster::runtime
