#include "comm/bus.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "comm/fault.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_context.hpp"

namespace lobster::comm {

std::uint16_t Endpoint::world_size() const noexcept { return bus_->world_size(); }

Status Endpoint::send(Rank to, Tag tag, std::vector<std::byte> payload) {
  return bus_->do_send(to, Message{rank_, tag, make_payload(std::move(payload))});
}

Status Endpoint::send(Rank to, Tag tag, PayloadPtr payload) {
  return bus_->do_send(to, Message{rank_, tag, std::move(payload)});
}

Result<Message> Endpoint::recv(Tag tag) {
  return bus_->do_recv(rank_, tag, true, std::nullopt);
}

Result<Message> Endpoint::recv_for(Tag tag, Seconds timeout) {
  const auto deadline = MessageBus::Clock::now() +
      std::chrono::duration_cast<MessageBus::Clock::duration>(
          std::chrono::duration<double>(std::max(0.0, timeout)));
  return bus_->do_recv(rank_, tag, true, deadline);
}

Result<Message> Endpoint::try_recv(Tag tag) {
  return bus_->do_recv(rank_, tag, false, std::nullopt);
}

void Endpoint::barrier() { bus_->do_barrier(); }

std::vector<double> Endpoint::allreduce_sum(std::vector<double> values) {
  return bus_->do_allreduce(rank_, std::move(values));
}

MessageBus::MessageBus(std::uint16_t world_size) : world_size_(world_size) {
  if (world_size == 0) throw std::invalid_argument("MessageBus: world_size must be >= 1");
  endpoints_.reserve(world_size);
  for (Rank r = 0; r < world_size; ++r) endpoints_.push_back(Endpoint(*this, r));
  receivers_.reserve(world_size);
  for (Rank r = 0; r < world_size; ++r) {
    receivers_.push_back(std::make_unique<ReceiverState>());
  }
}

MessageBus::~MessageBus() { shutdown(); }

Endpoint& MessageBus::endpoint(Rank rank) {
  if (rank >= world_size_) throw std::out_of_range("MessageBus: rank out of range");
  return endpoints_[rank];
}

void MessageBus::set_fault_plan(FaultPlan* plan) {
  fault_plan_.store(plan, std::memory_order_seq_cst);
}

void MessageBus::shutdown() {
  shutdown_.store(true, std::memory_order_seq_cst);
  {
    const std::scoped_lock lock(mutex_);
  }
  cv_.notify_all();
  for (auto& receiver : receivers_) {
    {
      // Lock/unlock pairs with a receiver that checked shutdown_ before
      // sleeping: either it saw the flag, or it reached the wait first and
      // this notify lands after it released the mutex.
      const std::scoped_lock lock(receiver->mutex);
    }
    receiver->cv.notify_all();
  }
}

bool MessageBus::is_shutdown() const {
  return shutdown_.load(std::memory_order_seq_cst);
}

Status MessageBus::do_send(Rank to, Message message) {
  if (to >= world_size_) throw std::out_of_range("MessageBus: destination rank out of range");
#if !defined(LOBSTER_TELEMETRY_DISABLED)
  // Causal propagation: stamp the sending thread's current span into the
  // envelope so the receiver can parent its handler span under it. Callers
  // that pre-stamped ids (tests, replays) keep them.
  if (message.trace_id == 0) {
    const auto context = telemetry::current_trace_context();
    message.trace_id = context.trace_id;
    message.span_id = context.span_id;
  }
#endif
  if (shutdown_.load(std::memory_order_seq_cst)) return Status::shutdown("bus is shut down");

  Envelope envelope{std::move(message), {}};
  if (FaultPlan* plan = fault_plan_.load(std::memory_order_seq_cst); plan != nullptr) {
    slow_path_sends_.fetch_add(1, std::memory_order_relaxed);
    LOBSTER_METRIC_COUNT("comm.slow_path_sends", 1);
    const FaultPlan::Verdict verdict = plan->on_message(envelope.message.source, to);
    // Fire-and-forget: a dropped message still reports ok to the sender,
    // exactly as a real NIC gives no delivery receipt.
    if (verdict.drop) return Status{};
    if (verdict.corrupt && envelope.message.payload &&
        !envelope.message.payload->empty()) {
      // Copy-on-write: the payload is shared with the sender's cache, so
      // corruption clones it first — only the wire copy lies.
      auto corrupted =
          std::make_shared<std::vector<std::byte>>(*envelope.message.payload);
      // Flip bytes spread across the payload tail. The tail is where
      // response *content* lives (headers sit at the front), so a
      // corrupted reply passes superficial parsing and only end-to-end
      // payload verification catches it — the scenario the quarantine
      // path exists for. Small messages get their last byte flipped,
      // which garbles request ids / sample ids instead.
      auto& bytes = *corrupted;
      const std::size_t n = bytes.size();
      const std::size_t flips = n >= 64 ? 4 : 1;
      for (std::size_t i = 0; i < flips; ++i) {
        bytes[n - 1 - i * (n / (flips * 2 + 1))] ^= std::byte{0xA5};
      }
      envelope.message.payload = std::move(corrupted);
    }
    if (verdict.delay_s > 0.0) {
      envelope.deliver_at = Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(verdict.delay_s));
    }
  }
  ReceiverState& receiver = *receivers_[to];
  {
    const std::scoped_lock lock(receiver.mutex);
    receiver.mailbox.push_back(std::move(envelope));
  }
  // notify_all, not notify_one: threads blocked on this rank wait on
  // different tags, and a lone wakeup could land on one that ignores it.
  receiver.cv.notify_all();
  return Status{};
}

Result<Message> MessageBus::do_recv(Rank me, Tag tag, bool blocking,
                                    std::optional<Clock::time_point> deadline) {
  ReceiverState& receiver = *receivers_[me];
  std::unique_lock lock(receiver.mutex);
  // Scans the mailbox for the first deliverable match; if matching messages
  // exist but are still in flight (fault-injected delay), reports the
  // earliest time one becomes visible so the wait can use it.
  auto find_match = [&](Clock::time_point now,
                        std::optional<Clock::time_point>& next_ready) -> std::optional<Message> {
    next_ready.reset();
    auto& box = receiver.mailbox;
    for (auto it = box.begin(); it != box.end(); ++it) {
      if (tag != kAnyTag && it->message.tag != tag) continue;
      if (it->deliver_at > now) {
        if (!next_ready || it->deliver_at < *next_ready) next_ready = it->deliver_at;
        continue;
      }
      Message found = std::move(it->message);
      box.erase(it);
      return found;
    }
    return std::nullopt;
  };

  for (;;) {
    const Clock::time_point now = Clock::now();
    std::optional<Clock::time_point> next_ready;
    if (auto found = find_match(now, next_ready)) return std::move(*found);
    if (shutdown_.load(std::memory_order_seq_cst)) return Status::shutdown("bus is shut down");
    if (!blocking) return Status::not_found("no matching message");
    if (deadline && now >= *deadline) return Status::timeout("recv deadline expired");

    // Wake at whichever comes first: the caller's deadline or the moment an
    // in-flight (delayed) matching message becomes deliverable.
    std::optional<Clock::time_point> wake = deadline;
    if (next_ready && (!wake || *next_ready < *wake)) wake = next_ready;

    // Senders append under this mutex, so nothing can slip in between the
    // scan above and the wait below.
    if (wake) {
      receiver.cv.wait_until(lock, *wake);
    } else {
      receiver.cv.wait(lock);
    }
  }
}

void MessageBus::do_barrier() {
  std::unique_lock lock(mutex_);
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_waiting_ == world_size_) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    lock.unlock();
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] {
    return barrier_generation_ != my_generation ||
           shutdown_.load(std::memory_order_seq_cst);
  });
}

std::vector<double> MessageBus::do_allreduce(Rank me, std::vector<double> values) {
  (void)me;
  std::unique_lock lock(mutex_);
  const std::uint64_t my_generation = reduce_generation_;
  if (reduce_waiting_ == 0) {
    reduce_accum_ = values;
  } else {
    if (reduce_accum_.size() != values.size()) {
      throw std::invalid_argument("allreduce_sum: mismatched vector sizes across ranks");
    }
    for (std::size_t i = 0; i < values.size(); ++i) reduce_accum_[i] += values[i];
  }
  if (++reduce_waiting_ == world_size_) {
    reduce_result_ = reduce_accum_;
    reduce_waiting_ = 0;
    ++reduce_generation_;
    lock.unlock();
    cv_.notify_all();
    return reduce_result_;
  }
  cv_.wait(lock, [&] {
    return reduce_generation_ != my_generation ||
           shutdown_.load(std::memory_order_seq_cst);
  });
  return reduce_result_;
}

}  // namespace lobster::comm
