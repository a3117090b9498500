// In-process MPI-like message bus.
//
// Lobster's online runtime uses a "distribution manager responsible to
// handle the distributed operations across the compute nodes using MPI"
// (§4.5). On a single machine we provide the same primitives over real
// threads: ranked endpoints with tagged send/recv, barrier, and all-reduce.
// One Endpoint per simulated node; each node's distribution manager runs
// its endpoint from its own thread.
//
// Data plane (DESIGN.md §8): every rank owns one mailbox, a mutex-guarded
// deque plus a condition variable. A send appends under the receiver's
// mutex and wakes every thread blocked on that rank (several may wait at
// once, each on its own tag). Multi-get coalescing keeps the traffic low
// (a few thousand envelopes per second, mailboxes a handful deep), so one
// path serves healthy and fault-injected runs alike. Sends an attached
// FaultPlan judged are counted in the `comm.slow_path_sends` telemetry
// counter and MessageBus::slow_path_sends().
//
// Payloads are zero-copy: Message carries a shared_ptr<const vector<byte>>
// stamped once at materialization and shared by the sender's cache, the
// in-flight envelope, and the receiver — no copy at send, none at serve.
//
// Semantics:
//   - send() is asynchronous and never blocks (the mailbox is unbounded);
//     it returns Status::shutdown after shutdown and ok otherwise — a
//     dropped or delayed message (fault injection) still reports ok,
//     exactly as a real NIC gives no delivery receipt;
//   - recv() blocks until a message with a matching tag arrives (tag
//     kAnyTag matches everything); messages with the same (source, tag)
//     sent from one thread arrive in send order; recv_for() additionally
//     gives up with StatusCode::kTimeout once the deadline passes — the
//     primitive the fault-tolerant fetch path is built on;
//   - barrier() blocks until all ranks arrive (generation-counted, so
//     repeated barriers work); collectives are NOT fault-aware — do not
//     barrier against a killed rank;
//   - allreduce_sum() element-wise sums a vector across all ranks and
//     returns the result to every caller (barrier-style collective);
//   - shutdown() releases all blocked receivers with StatusCode::kShutdown.
//
// Fault injection: set_fault_plan() attaches a comm::FaultPlan that is
// consulted on every send — it may drop the message, delay its delivery
// (the message sits invisibly in the mailbox until its deliver-at time),
// or corrupt its payload in flight (the payload is cloned and its copy's
// bytes flipped — copy-on-write, so other holders of the shared payload
// are untouched; the receiver sees a well-formed message whose content
// fails end-to-end verification). Null plan (the default) costs one
// atomic load per send.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace lobster::comm {

using Rank = std::uint16_t;
using Tag = std::uint32_t;

inline constexpr Tag kAnyTag = ~0U;

/// Immutable shared payload: materialized once, then shared by cache,
/// envelope, and receiver without further copies.
using PayloadPtr = std::shared_ptr<const std::vector<std::byte>>;

/// Wraps a byte vector into the shared payload type (one move, no copy).
inline PayloadPtr make_payload(std::vector<std::byte> bytes) {
  return std::make_shared<const std::vector<std::byte>>(std::move(bytes));
}

struct Message {
  Rank source = 0;
  Tag tag = 0;
  PayloadPtr payload;  // null and empty are equivalent (see bytes())
  // Causal trace coordinates (telemetry::TraceContext), stamped by the bus
  // from the sending thread's current span when tracing is enabled — the
  // cross-rank propagation path for span trees (DESIGN.md §11). Zero means
  // "no active trace". Deliberately last: existing aggregate initializers
  // ({source, tag, payload}) stay valid.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  /// The payload bytes; an empty vector when no payload is attached.
  const std::vector<std::byte>& bytes() const noexcept {
    static const std::vector<std::byte> kEmpty;
    return payload ? *payload : kEmpty;
  }
};

class MessageBus;
class FaultPlan;

/// A rank's handle onto the bus. Thread-compatible: one owning thread per
/// endpoint (matching MPI's single-threaded-rank model); the bus itself is
/// fully thread-safe.
class Endpoint {
 public:
  Rank rank() const noexcept { return rank_; }
  std::uint16_t world_size() const noexcept;

  /// Asynchronous tagged send. StatusCode::kShutdown after shutdown; ok
  /// otherwise (fire-and-forget: injected drops still report ok).
  Status send(Rank to, Tag tag, std::vector<std::byte> payload);

  /// Zero-copy send: the payload is shared, not copied, into the envelope.
  Status send(Rank to, Tag tag, PayloadPtr payload);

  /// Convenience: sends a trivially-copyable value.
  template <typename T>
  Status send_value(Rank to, Tag tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(sizeof(T));
    std::memcpy(bytes.data(), &value, sizeof(T));
    return send(to, tag, std::move(bytes));
  }

  /// Blocking tagged receive; StatusCode::kShutdown after shutdown (and
  /// drained mailbox).
  Result<Message> recv(Tag tag = kAnyTag);

  /// Blocking receive with a deadline: StatusCode::kTimeout if no matching
  /// message becomes deliverable within `timeout`, kShutdown on shutdown.
  Result<Message> recv_for(Tag tag, Seconds timeout);

  /// Non-blocking receive; StatusCode::kNotFound when nothing matches.
  Result<Message> try_recv(Tag tag = kAnyTag);

  template <typename T>
  static T value_of(const Message& message) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto& bytes = message.bytes();
    T value{};
    // An empty payload has no data pointer to copy from.
    if (!bytes.empty()) std::memcpy(&value, bytes.data(), std::min(sizeof(T), bytes.size()));
    return value;
  }

  /// Collective: blocks until every rank has called barrier().
  void barrier();

  /// Collective: element-wise sum across ranks; every rank gets the result.
  std::vector<double> allreduce_sum(std::vector<double> values);

 private:
  friend class MessageBus;
  Endpoint(MessageBus& bus, Rank rank) : bus_(&bus), rank_(rank) {}

  MessageBus* bus_;
  Rank rank_;
};

class MessageBus {
 public:
  explicit MessageBus(std::uint16_t world_size);
  ~MessageBus();

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  std::uint16_t world_size() const noexcept { return world_size_; }

  /// The endpoint for `rank`; valid for the bus's lifetime.
  Endpoint& endpoint(Rank rank);

  /// Attaches (or detaches, with nullptr) a fault injector consulted on
  /// every send. The plan must outlive the bus or be detached first.
  void set_fault_plan(FaultPlan* plan);

  /// Sends an attached FaultPlan judged (0 while none is attached).
  /// Mirrors the `comm.slow_path_sends` counter.
  std::uint64_t slow_path_sends() const noexcept {
    return slow_path_sends_.load(std::memory_order_relaxed);
  }

  /// Releases every blocked receiver / collective.
  void shutdown();
  bool is_shutdown() const;

 private:
  friend class Endpoint;

  using Clock = std::chrono::steady_clock;

  /// A mailbox entry; deliver_at in the future means the message is in
  /// flight (fault-injected delay) and invisible to receivers until then.
  struct Envelope {
    Message message;
    Clock::time_point deliver_at{};  // epoch == immediately deliverable
  };

  /// A rank's mailbox and the condition variable its receivers sleep on.
  struct ReceiverState {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Envelope> mailbox;
  };

  Status do_send(Rank to, Message message);

  Result<Message> do_recv(Rank me, Tag tag, bool blocking,
                          std::optional<Clock::time_point> deadline);
  void do_barrier();
  std::vector<double> do_allreduce(Rank me, std::vector<double> values);

  const std::uint16_t world_size_;
  std::vector<Endpoint> endpoints_;

  // Data plane.
  std::vector<std::unique_ptr<ReceiverState>> receivers_;
  std::atomic<FaultPlan*> fault_plan_{nullptr};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> slow_path_sends_{0};

  // Control plane: collectives keep the one global mutex — they are
  // inherently all-rank rendezvous points, never hot.
  mutable std::mutex mutex_;
  std::condition_variable cv_;

  // Barrier state (generation counting).
  std::uint32_t barrier_waiting_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // All-reduce state.
  std::vector<double> reduce_accum_;
  std::uint32_t reduce_waiting_ = 0;
  std::uint64_t reduce_generation_ = 0;
  std::vector<double> reduce_result_;
};

}  // namespace lobster::comm
