#include "runtime/distribution_manager.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/payload_arena.hpp"
#include "common/rng.hpp"
#include "telemetry/events.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::runtime {

namespace {

constexpr comm::Tag kFetchRequestTag = 0x0F00;

/// Sentinel sample id: a FetchRequest carrying it is an inventory request
/// (same tag and server loop as sample fetches, so one serve thread handles
/// both and a killed node's poison pill still works unchanged).
constexpr SampleId kInventorySample = kInvalidSample - 1;

/// Sentinel sample id: a FetchRequest carrying it is a multi-get, the only
/// sample fetch on the wire. The request body continues with a count and
/// that many sample ids; the reply interleaves per-sample headers and
/// payload bytes (DESIGN.md §8).
constexpr SampleId kMultiGetSample = kInvalidSample - 2;

struct FetchRequest {
  std::uint64_t request_id;
  SampleId sample;
};

struct ResponseHeader {
  SampleId sample;
  std::uint8_t found;
};

static_assert(sizeof(ResponseHeader) + sizeof(std::uint64_t) ==
              DistributionManager::kMultiGetReplyHeaderBytes);
static_assert(sizeof(SampleId) + sizeof(std::uint64_t) ==
              DistributionManager::kMultiGetReplySampleBytes);

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kWordBytes = sizeof(std::uint64_t);
constexpr std::size_t kLineWords = 8;
constexpr std::size_t kLineBytes = kLineWords * kWordBytes;

/// Line-keyed pattern: line `n` (64 bytes) of a payload gets one splitmix64
/// finalizer of (seed, n), and its word j is that value XOR kLane[j]. Lane
/// constants are distinct multiples of the golden-ratio increment with
/// kLane[0] = 0, so no two words of a line are equal (a swap within a line
/// fails) while a line costs one mix instead of eight. Lines have no data
/// dependency on each other, so the CPU pipelines them.
constexpr std::array<std::uint64_t, kLineWords> kLane = [] {
  std::array<std::uint64_t, kLineWords> lane{};
  for (std::size_t j = 0; j < kLineWords; ++j) lane[j] = j * 0x9E3779B97F4A7C15ULL;
  return lane;
}();

std::uint64_t line_word(std::uint64_t seed, std::uint64_t line) noexcept {
  std::uint64_t z = seed + (line + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Pattern word `k`, counted from the start of the pattern.
std::uint64_t pattern_word(std::uint64_t seed, std::uint64_t k) noexcept {
  return line_word(seed, k / kLineWords) ^ kLane[k % kLineWords];
}

/// Pattern byte at `offset` from the start of the pattern: byte offset % 8
/// of its word, little-endian, so endianness never changes what
/// verification accepts.
std::byte pattern_byte(std::uint64_t seed, std::size_t offset) noexcept {
  const std::uint64_t word = pattern_word(seed, offset / kWordBytes);
  return static_cast<std::byte>((word >> ((offset % kWordBytes) * 8)) & 0xFF);
}

/// Keyed-pattern fill of data[begin, size): whole lines, then whole words,
/// then bytes, all from pattern_word. `begin` is word-aligned (0, 8 or 16).
void fill_pattern(std::byte* data, std::size_t begin, std::size_t size,
                  std::uint64_t seed) {
  std::size_t i = begin;
  if constexpr (std::endian::native == std::endian::little) {
    for (std::uint64_t line = 0; i + kLineBytes <= size; i += kLineBytes, ++line) {
      const std::uint64_t base = line_word(seed, line);
      std::uint64_t words[kLineWords];
      for (std::size_t j = 0; j < kLineWords; ++j) words[j] = base ^ kLane[j];
      std::memcpy(data + i, words, kLineBytes);
    }
    for (; i + kWordBytes <= size; i += kWordBytes) {
      const std::uint64_t word = pattern_word(seed, (i - begin) / kWordBytes);
      std::memcpy(data + i, &word, kWordBytes);
    }
  }
  for (; i < size; ++i) data[i] = pattern_byte(seed, i - begin);
}

/// Verification twin of fill_pattern; no allocation. A line's eight XOR
/// differences are ORed and tested once, so every byte is still compared.
bool check_pattern(const std::byte* data, std::size_t begin, std::size_t size,
                   std::uint64_t seed) {
  std::size_t i = begin;
  if constexpr (std::endian::native == std::endian::little) {
    for (std::uint64_t line = 0; i + kLineBytes <= size; i += kLineBytes, ++line) {
      const std::uint64_t base = line_word(seed, line);
      std::uint64_t words[kLineWords];
      std::memcpy(words, data + i, kLineBytes);
      std::uint64_t diff = 0;
      for (std::size_t j = 0; j < kLineWords; ++j) diff |= words[j] ^ base ^ kLane[j];
      if (diff != 0) return false;
    }
    for (; i + kWordBytes <= size; i += kWordBytes) {
      std::uint64_t got = 0;
      std::memcpy(&got, data + i, kWordBytes);
      if (got != pattern_word(seed, (i - begin) / kWordBytes)) return false;
    }
  }
  for (; i < size; ++i) {
    if (data[i] != pattern_byte(seed, i - begin)) return false;
  }
  return true;
}

/// Header layout shared by generation and verification: id, then length,
/// each included only when the payload is long enough to carry it.
std::size_t pattern_offset(std::size_t size) {
  if (size >= sizeof(SampleId) + sizeof(std::uint64_t)) {
    return sizeof(SampleId) + sizeof(std::uint64_t);
  }
  return size >= sizeof(SampleId) ? sizeof(SampleId) : 0;
}

}  // namespace

std::uint64_t inventory_checksum(const std::vector<SampleId>& samples) noexcept {
  std::uint64_t hash = 0x1AB5'7E12'D00D'F00DULL ^ samples.size();
  for (const SampleId s : samples) {
    std::uint64_t state = s;
    hash ^= splitmix64(state);
  }
  return hash;
}

void make_sample_payload_into(SampleId sample, Bytes size, std::byte* dst) {
  const auto n = static_cast<std::size_t>(size);
  // Header authenticates both the id and the length, so truncated or padded
  // payloads fail verification (not just corrupted ones).
  if (n >= sizeof(SampleId)) {
    std::memcpy(dst, &sample, sizeof(SampleId));
  }
  if (n >= sizeof(SampleId) + sizeof(std::uint64_t)) {
    const std::uint64_t length = size;
    std::memcpy(dst + sizeof(SampleId), &length, sizeof(length));
  }
  fill_pattern(dst, pattern_offset(n), n, derive_seed(0xC0FFEEULL, sample));
}

std::vector<std::byte> make_sample_payload(SampleId sample, Bytes size) {
  std::vector<std::byte> payload(static_cast<std::size_t>(size));
  make_sample_payload_into(sample, size, payload.data());
  return payload;
}

comm::PayloadPtr make_sample_payload_shared(SampleId sample, Bytes size) {
  auto buffer = PayloadArena::acquire(static_cast<std::size_t>(size));
  make_sample_payload_into(sample, size, buffer->data());
  return buffer;
}

bool verify_sample_payload(SampleId sample, const std::byte* data, std::size_t size) {
  if (size >= sizeof(SampleId)) {
    SampleId got = kInvalidSample;
    std::memcpy(&got, data, sizeof(got));
    if (got != sample) return false;
  }
  if (size >= sizeof(SampleId) + sizeof(std::uint64_t)) {
    std::uint64_t length = 0;
    std::memcpy(&length, data + sizeof(SampleId), sizeof(length));
    if (length != size) return false;
  }
  return check_pattern(data, pattern_offset(size), size, derive_seed(0xC0FFEEULL, sample));
}

bool verify_sample_payload(SampleId sample, const std::vector<std::byte>& payload) {
  return verify_sample_payload(sample, payload.data(), payload.size());
}

DistributionManager::DistributionManager(comm::Endpoint& endpoint,
                                         std::function<bool(SampleId)> has_sample,
                                         std::function<Bytes(SampleId)> sample_size,
                                         FetchPolicy policy)
    : endpoint_(endpoint),
      has_sample_(std::move(has_sample)),
      sample_size_(std::move(sample_size)),
      policy_(policy),
      breakers_(endpoint.world_size()) {}

DistributionManager::~DistributionManager() { stop(); }

void DistributionManager::start() {
  if (running_.exchange(true)) return;
  server_ = std::jthread([this] { serve_loop(); });
}

void DistributionManager::stop() {
  if (!running_.exchange(false)) return;
  // Poison request to our own server loop so it observes running_ == false.
  // A self-send never crosses the (possibly faulty) fabric, so this works
  // even when this node has been killed by a FaultPlan.
  FetchRequest poison{0, kInvalidSample};
  std::vector<std::byte> bytes(sizeof(poison));
  std::memcpy(bytes.data(), &poison, sizeof(poison));
  (void)endpoint_.send(endpoint_.rank(), kFetchRequestTag, std::move(bytes));
  if (server_.joinable()) server_.join();
}

void DistributionManager::serve_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto message = endpoint_.recv(kFetchRequestTag);
    if (!message.has_value()) return;  // bus shutdown
    const auto request = comm::Endpoint::value_of<FetchRequest>(*message);
    // Any other id (the poison pill included) is dropped; the loop then
    // re-checks running_.
    if (request.sample == kInventorySample) {
      serve_inventory(*message, request.request_id);
    } else if (request.sample == kMultiGetSample) {
      serve_multi_get(*message, request.request_id);
    }
  }
}

void DistributionManager::serve_multi_get(const comm::Message& request_message,
                                          std::uint64_t request_id) {
  telemetry::Span serve(
      telemetry::SpanKind::kServe, endpoint_.rank(),
      telemetry::TraceContext{request_message.trace_id, request_message.span_id, 0},
      kMultiGetSample);
  const auto& bytes = request_message.bytes();
  constexpr std::size_t kIdsOffset = sizeof(FetchRequest) + sizeof(std::uint64_t);
  std::uint64_t count = 0;
  if (bytes.size() >= kIdsOffset) {
    std::memcpy(&count, bytes.data() + sizeof(FetchRequest), sizeof(count));
    // A truncated or garbled request yields fewer ids than claimed; serve
    // what is actually present — the requester detects the shortfall from
    // the reply framing and treats the remainder as corrupt.
    count = std::min<std::uint64_t>(count, (bytes.size() - kIdsOffset) / sizeof(SampleId));
  }
  std::vector<SampleId> ids(static_cast<std::size_t>(count));
  if (count > 0) {
    std::memcpy(ids.data(), bytes.data() + kIdsOffset,
                static_cast<std::size_t>(count) * sizeof(SampleId));
  }

  // Pass 1 sizes the reply exactly; pass 2 materializes every payload
  // directly into one arena buffer (no per-sample allocation, one send).
  std::vector<Bytes> sizes(ids.size(), 0);
  std::size_t total = kMultiGetReplyHeaderBytes;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    total += kMultiGetReplySampleBytes;
    if (has_sample_ && has_sample_(ids[i])) {
      sizes[i] = sample_size_ ? sample_size_(ids[i]) : 64;
      total += static_cast<std::size_t>(sizes[i]);
      ++served_;
    } else {
      ++failed_;
    }
  }
  auto reply = PayloadArena::acquire(total);
  std::byte* out = reply->data();
  const ResponseHeader header{kMultiGetSample, 1};
  std::memcpy(out, &header, sizeof(header));
  std::size_t off = sizeof(header);
  std::memcpy(out + off, &count, sizeof(count));
  off += sizeof(count);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(out + off, &ids[i], sizeof(SampleId));
    off += sizeof(SampleId);
    const std::uint64_t found_size = sizes[i];
    std::memcpy(out + off, &found_size, sizeof(found_size));
    off += sizeof(found_size);
    if (found_size > 0) {
      make_sample_payload_into(ids[i], sizes[i], out + off);
      off += static_cast<std::size_t>(found_size);
    }
  }
  const Status sent = endpoint_.send(request_message.source, response_tag(request_id),
                                     comm::PayloadPtr(std::move(reply)));
  count_serve_send_failure(sent, request_message.source, request_id);
}

void DistributionManager::serve_inventory(const comm::Message& request_message,
                                          std::uint64_t request_id) {
  telemetry::Span serve(
      telemetry::SpanKind::kServe, endpoint_.rank(),
      telemetry::TraceContext{request_message.trace_id, request_message.span_id, 0},
      kInventorySample);
  const std::vector<SampleId> samples =
      inventory_source_ ? inventory_source_() : std::vector<SampleId>{};
  const ResponseHeader header{kInventorySample, 1};
  const std::uint64_t count = samples.size();
  const std::uint64_t checksum = inventory_checksum(samples);
  std::vector<std::byte> response(sizeof(header) + sizeof(count) +
                                  samples.size() * sizeof(SampleId) + sizeof(checksum));
  std::size_t offset = 0;
  std::memcpy(response.data(), &header, sizeof(header));
  offset += sizeof(header);
  std::memcpy(response.data() + offset, &count, sizeof(count));
  offset += sizeof(count);
  if (!samples.empty()) {
    std::memcpy(response.data() + offset, samples.data(), samples.size() * sizeof(SampleId));
    offset += samples.size() * sizeof(SampleId);
  }
  std::memcpy(response.data() + offset, &checksum, sizeof(checksum));
  ++served_;
  const Status sent = endpoint_.send(request_message.source, response_tag(request_id),
                                     std::move(response));
  count_serve_send_failure(sent, request_message.source, request_id);
}

void DistributionManager::count_serve_send_failure(const Status& sent, comm::Rank requester,
                                                   std::uint64_t request_id) {
  if (sent.ok()) return;
  ++serve_send_failures_;
  LOBSTER_METRIC_COUNT("dm.serve_send_failures", 1);
  telemetry::EventLog::instance().emit(telemetry::EventKind::kServeSendFailure,
                                       endpoint_.rank(), request_id, requester,
                                       sent.code_name());
}

bool DistributionManager::breaker_open(comm::Rank holder) const {
  if (holder >= breakers_.size()) return false;
  const std::int64_t until = breakers_[holder].open_until_ns.load(std::memory_order_acquire);
  return until != 0 && steady_now_ns() < until;
}

void DistributionManager::record_success(comm::Rank holder) {
  Breaker& breaker = breakers_[holder];
  breaker.consecutive_timeouts.store(0, std::memory_order_relaxed);
  breaker.consecutive_corrupts.store(0, std::memory_order_relaxed);
  // Half-open probe succeeded (or the peer was healthy all along): close,
  // and tell the recovery layer the peer is answering again.
  if (breaker.open_until_ns.exchange(0, std::memory_order_acq_rel) != 0) {
    ++breaker_closes_;
    LOBSTER_METRIC_COUNT("dm.breaker_closes", 1);
    telemetry::EventLog::instance().emit(telemetry::EventKind::kBreakerClose, holder, 0,
                                         endpoint_.rank());
    if (on_breaker_close_) on_breaker_close_(holder);
  }
}

void DistributionManager::open_breaker(comm::Rank holder) {
  Breaker& breaker = breakers_[holder];
  const std::int64_t until =
      steady_now_ns() + static_cast<std::int64_t>(policy_.breaker_cooldown * 1e9);
  if (breaker.open_until_ns.exchange(until, std::memory_order_acq_rel) == 0) {
    ++breaker_opens_;
    LOBSTER_METRIC_COUNT("dm.breaker_opens", 1);
    telemetry::EventLog::instance().emit(
        telemetry::EventKind::kBreakerOpen, holder,
        breaker.consecutive_timeouts.load(std::memory_order_relaxed),
        breaker.consecutive_corrupts.load(std::memory_order_relaxed));
  }
}

void DistributionManager::record_timeout(comm::Rank holder) {
  ++timeouts_;
  LOBSTER_METRIC_COUNT("comm.timeouts", 1);
  Breaker& breaker = breakers_[holder];
  const std::uint32_t run = breaker.consecutive_timeouts.fetch_add(1) + 1;
  if (policy_.breaker_threshold > 0 && run >= policy_.breaker_threshold) {
    open_breaker(holder);
  }
}

void DistributionManager::record_corrupt(comm::Rank holder) {
  ++corrupt_replies_;
  LOBSTER_METRIC_COUNT("comm.corrupt_replies", 1);
  Breaker& breaker = breakers_[holder];
  const std::uint32_t run = breaker.consecutive_corrupts.fetch_add(1) + 1;
  if (policy_.corrupt_strike_threshold > 0 && run >= policy_.corrupt_strike_threshold) {
    open_breaker(holder);
  }
}

Status DistributionManager::fast_fail(comm::Rank holder, SampleId sample) {
  LOBSTER_METRIC_COUNT("comm.peer_down", 1);
  telemetry::Span::instant(telemetry::SpanKind::kBreakerFastFail, endpoint_.rank(), sample,
                           holder);
  return Status::peer_down("circuit breaker open for peer " + std::to_string(holder));
}

Result<std::vector<std::byte>> DistributionManager::fetch_remote(SampleId sample,
                                                                 comm::Rank holder) {
  const auto result = std::move(collect(post(holder, {&sample, 1}, 0)).front());
  if (!result.ok()) return result.status();
  return std::vector<std::byte>(result->begin(), result->end());
}

std::vector<Result<PayloadView>> DistributionManager::fetch_remote_many(
    comm::Rank holder, const std::vector<SampleId>& samples, IterId iter) {
  if (samples.empty()) return {};
  return collect(post(holder, samples, iter));
}

DistributionManager::PostedFetch DistributionManager::post(comm::Rank holder,
                                                           std::span<const SampleId> samples,
                                                           IterId iter) {
  PostedFetch posted;
  posted.holder_ = holder;
  posted.samples_ = samples;
  if (breaker_open(holder)) {
    posted.failed_ = fast_fail(holder, samples.front());
    return posted;
  }
  // One span per envelope (arg = holder, arg2 = iter): a child of the
  // caller's span, so the executor's re-route rounds share one tree.
  posted.multi_ = telemetry::Span::detached(telemetry::SpanKind::kMultiGet, endpoint_.rank(),
                                            telemetry::current_trace_context(), holder);
  posted.multi_.set_arg2(iter);
  send_attempt(posted);
  return posted;
}

void DistributionManager::send_attempt(PostedFetch& posted) {
  // One envelope per attempt, whatever the batch size; a fresh request id
  // each time, so a late reply to an abandoned attempt is never read.
  // arg = batch size, arg2 = holder.
  const std::span<const SampleId> samples = posted.samples_;
  posted.attempt_ = telemetry::Span::detached(telemetry::SpanKind::kAttempt, endpoint_.rank(),
                                              posted.multi_.context(), samples.size());
  posted.attempt_.set_arg2(posted.holder_);
  posted.request_id_ = next_request_id_.fetch_add(1);
  const FetchRequest request{posted.request_id_, kMultiGetSample};
  const std::uint64_t count = samples.size();
  auto wire = PayloadArena::acquire(sizeof(request) + sizeof(count) +
                                    samples.size() * sizeof(SampleId));
  std::memcpy(wire->data(), &request, sizeof(request));
  std::memcpy(wire->data() + sizeof(request), &count, sizeof(count));
  std::memcpy(wire->data() + sizeof(request) + sizeof(count), samples.data(),
              samples.size() * sizeof(SampleId));
  // The send carries the attempt's context, so the holder's kServe is its
  // child.
  const telemetry::ScopedContext on_wire(posted.attempt_.context());
  posted.failed_ =
      endpoint_.send(posted.holder_, kFetchRequestTag, comm::PayloadPtr(std::move(wire)));
  if (!posted.failed_.ok()) posted.attempt_.set_status(posted.failed_.code());
}

std::vector<Result<PayloadView>> DistributionManager::collect(PostedFetch posted) {
  const std::span<const SampleId> samples = posted.samples_;
  const comm::Rank holder = posted.holder_;
  std::vector<Result<PayloadView>> results;
  if (!posted.failed_.ok()) {
    results.assign(samples.size(), posted.failed_);
    return results;
  }
  // Backoff spans and the events below belong to this envelope's tree.
  const telemetry::ScopedContext in_envelope(posted.multi_.context());
  results.reserve(samples.size());
  Seconds backoff = policy_.backoff_base;
  for (std::uint32_t round = 1;; ++round) {
    auto response = endpoint_.recv_for(response_tag(posted.request_id_), policy_.timeout);
    if (!response.ok()) {
      posted.attempt_.set_status(response.status().code());
      posted.failed_ = response.status();
      if (posted.failed_.code() != StatusCode::kTimeout) break;  // shutdown etc.
      // One breaker strike per failed *envelope*, not per sample. The
      // timeout that trips the breaker still reports kTimeout, but the
      // rest of the budget is not burned against an open breaker.
      record_timeout(holder);
      if (breaker_open(holder) || round > policy_.max_retries) break;
      posted.attempt_.end();
      ++retries_;
      LOBSTER_METRIC_COUNT("comm.retries", 1);
      {
        telemetry::Span sleep(telemetry::SpanKind::kBackoff, endpoint_.rank(), samples.front());
        sleep.set_arg2(round);
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      backoff = std::min(backoff * 2.0, policy_.backoff_cap);
      send_attempt(posted);  // retry the whole batch
      if (!posted.failed_.ok()) break;
      continue;
    }

    const auto& reply = response->bytes();
    std::size_t off = 0;
    ResponseHeader header{};
    std::uint64_t reply_count = 0;
    bool framing_ok = reply.size() >= sizeof(header) + sizeof(reply_count);
    if (framing_ok) {
      std::memcpy(&header, reply.data(), sizeof(header));
      off += sizeof(header);
      std::memcpy(&reply_count, reply.data() + off, sizeof(reply_count));
      off += sizeof(reply_count);
      framing_ok = header.sample == kMultiGetSample && header.found == 1 &&
                   reply_count == samples.size();
    }
    bool any_corrupt = false;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (framing_ok && reply.size() - off >= kMultiGetReplySampleBytes) {
        SampleId id = kInvalidSample;
        std::uint64_t found_size = 0;
        std::memcpy(&id, reply.data() + off, sizeof(id));
        off += sizeof(id);
        std::memcpy(&found_size, reply.data() + off, sizeof(found_size));
        off += sizeof(found_size);
        // off <= reply.size() here, so this subtraction cannot wrap, while
        // `off + found_size` would for a found_size near 2^64.
        if (id != samples[i] || found_size > reply.size() - off) {
          framing_ok = false;  // framing lost; the rest is unreadable
        } else if (found_size == 0) {
          results.emplace_back(Status::not_found("peer no longer holds sample"));
          continue;
        } else {
          // The one verification of peer bytes: in place, where they come
          // off the wire. An ok result is a view of the retained reply.
          const auto size = static_cast<std::size_t>(found_size);
          const std::size_t body = off;
          off += size;
          if (verify_sample_payload(samples[i], reply.data() + body, size)) {
            results.emplace_back(PayloadView(response->payload, body, size));
          } else {
            results.emplace_back(Status::corrupt("payload failed verification"));
            any_corrupt = true;
          }
          continue;
        }
      } else {
        framing_ok = false;
      }
      results.emplace_back(Status::corrupt("multi-get reply malformed"));
      any_corrupt = true;
    }
    posted.attempt_.set_status(any_corrupt ? StatusCode::kCorrupt : StatusCode::kOk);
    // A reply with any corrupt bytes charges ONE strike and is never
    // retried here: the caller routes to the next holder. A clean reply
    // (found or authoritative not-found alike) resets the failure run.
    if (any_corrupt) {
      record_corrupt(holder);
    } else {
      record_success(holder);
    }
    return results;
  }
  results.assign(samples.size(), posted.failed_);
  return results;
}

Result<std::vector<SampleId>> DistributionManager::fetch_inventory(comm::Rank holder) {
  // No breaker_open fast-fail: this call IS the half-open probe a down
  // peer's recovery depends on. It still records the outcome, so success
  // re-closes the breaker and failure keeps it open.
  telemetry::Span probe(telemetry::SpanKind::kInventoryProbe, endpoint_.rank(), holder);
  const auto report = [&probe](Status status) {
    probe.set_status(status.code());
    return status;
  };
  const std::uint64_t request_id = next_request_id_.fetch_add(1);
  const FetchRequest request{request_id, kInventorySample};
  std::vector<std::byte> bytes(sizeof(request));
  std::memcpy(bytes.data(), &request, sizeof(request));
  if (Status sent = endpoint_.send(holder, kFetchRequestTag, std::move(bytes)); !sent.ok()) {
    return report(sent);
  }

  auto response = endpoint_.recv_for(response_tag(request_id), policy_.timeout);
  if (!response.ok()) {
    if (response.status().code() == StatusCode::kTimeout) record_timeout(holder);
    return report(response.status());
  }
  const auto& payload = response->bytes();
  ResponseHeader header{};
  std::uint64_t count = 0;
  if (payload.size() < sizeof(header) + sizeof(count) + sizeof(std::uint64_t)) {
    record_corrupt(holder);
    return report(Status::corrupt("inventory reply truncated"));
  }
  std::memcpy(&header, payload.data(), sizeof(header));
  std::memcpy(&count, payload.data() + sizeof(header), sizeof(count));
  const std::size_t ids_offset = sizeof(header) + sizeof(count);
  // Compared by division: `count * sizeof(SampleId)` wraps for a false
  // count near 2^62 and would pass a short reply.
  const std::size_t ids_bytes = payload.size() - ids_offset - sizeof(std::uint64_t);
  if (header.sample != kInventorySample || header.found != 1 ||
      ids_bytes % sizeof(SampleId) != 0 || count != ids_bytes / sizeof(SampleId)) {
    record_corrupt(holder);
    return report(Status::corrupt("inventory reply malformed"));
  }
  std::vector<SampleId> samples(static_cast<std::size_t>(count));
  if (count > 0) {
    std::memcpy(samples.data(), payload.data() + ids_offset, count * sizeof(SampleId));
  }
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, payload.data() + ids_offset + count * sizeof(SampleId),
              sizeof(checksum));
  if (checksum != inventory_checksum(samples)) {
    record_corrupt(holder);
    return report(Status::corrupt("inventory checksum mismatch"));
  }
  record_success(holder);
  return samples;
}

}  // namespace lobster::runtime
