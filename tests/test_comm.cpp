// MPI-like message bus: tagged delivery order, collectives, shutdown,
// fault-plan accounting, and the distribution manager's traffic shape.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "comm/bus.hpp"
#include "comm/fault.hpp"

namespace lobster::comm {
namespace {

TEST(MessageBus, RejectsZeroWorld) {
  EXPECT_THROW(MessageBus(0), std::invalid_argument);
}

TEST(MessageBus, EndpointRangeChecked) {
  MessageBus bus(2);
  EXPECT_THROW(bus.endpoint(2), std::out_of_range);
  EXPECT_EQ(bus.endpoint(1).rank(), 1);
  EXPECT_EQ(bus.endpoint(0).world_size(), 2);
}

TEST(MessageBus, SendRecvValueRoundTrip) {
  MessageBus bus(2);
  bus.endpoint(0).send_value<int>(1, /*tag=*/7, 42);
  const auto message = bus.endpoint(1).recv(7);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->source, 0);
  EXPECT_EQ(message->tag, 7U);
  EXPECT_EQ(Endpoint::value_of<int>(*message), 42);
}

TEST(MessageBus, SameTagFifoOrder) {
  MessageBus bus(2);
  for (int i = 0; i < 10; ++i) bus.endpoint(0).send_value<int>(1, 1, i);
  for (int i = 0; i < 10; ++i) {
    const auto message = bus.endpoint(1).recv(1);
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(Endpoint::value_of<int>(*message), i);
  }
}

TEST(MessageBus, TagFilteringSkipsNonMatching) {
  MessageBus bus(2);
  bus.endpoint(0).send_value<int>(1, /*tag=*/5, 55);
  bus.endpoint(0).send_value<int>(1, /*tag=*/9, 99);
  const auto nine = bus.endpoint(1).recv(9);
  ASSERT_TRUE(nine.has_value());
  EXPECT_EQ(Endpoint::value_of<int>(*nine), 99);
  const auto five = bus.endpoint(1).recv(5);
  ASSERT_TRUE(five.has_value());
  EXPECT_EQ(Endpoint::value_of<int>(*five), 55);
}

TEST(MessageBus, AnyTagMatchesEverything) {
  MessageBus bus(2);
  bus.endpoint(0).send_value<int>(1, 123, 1);
  const auto message = bus.endpoint(1).recv(kAnyTag);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->tag, 123U);
}

TEST(MessageBus, TryRecvNonBlocking) {
  MessageBus bus(2);
  EXPECT_FALSE(bus.endpoint(1).try_recv().has_value());
  bus.endpoint(0).send_value<int>(1, 1, 5);
  EXPECT_TRUE(bus.endpoint(1).try_recv(1).has_value());
}

TEST(MessageBus, SelfSendWorks) {
  MessageBus bus(1);
  bus.endpoint(0).send_value<int>(0, 3, 33);
  const auto message = bus.endpoint(0).recv(3);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(Endpoint::value_of<int>(*message), 33);
}

TEST(MessageBus, BlockingRecvWakesOnSend) {
  MessageBus bus(2);
  std::atomic<int> got{0};
  std::thread receiver([&] {
    const auto message = bus.endpoint(1).recv(1);
    if (message) got.store(Endpoint::value_of<int>(*message));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  bus.endpoint(0).send_value<int>(1, 1, 77);
  receiver.join();
  EXPECT_EQ(got.load(), 77);
}

TEST(MessageBus, ShutdownUnblocksReceivers) {
  MessageBus bus(2);
  std::atomic<bool> unblocked{false};
  std::thread receiver([&] {
    const auto message = bus.endpoint(1).recv(1);
    unblocked.store(!message.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  bus.shutdown();
  receiver.join();
  EXPECT_TRUE(unblocked.load());
  const Status rejected = bus.endpoint(0).send(1, 1, std::vector<std::byte>{});
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kShutdown);
}

TEST(MessageBus, BarrierSynchronizesAllRanks) {
  constexpr std::uint16_t kWorld = 4;
  MessageBus bus(kWorld);
  std::atomic<int> before_barrier{0};
  std::atomic<int> after_barrier{0};
  std::atomic<bool> order_violated{false};
  std::vector<std::thread> ranks;
  for (std::uint16_t r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      before_barrier.fetch_add(1);
      bus.endpoint(r).barrier();
      if (before_barrier.load() != kWorld) order_violated.store(true);
      after_barrier.fetch_add(1);
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_FALSE(order_violated.load());
  EXPECT_EQ(after_barrier.load(), kWorld);
}

TEST(MessageBus, RepeatedBarriers) {
  constexpr std::uint16_t kWorld = 3;
  MessageBus bus(kWorld);
  std::vector<std::thread> ranks;
  std::atomic<int> rounds_done{0};
  for (std::uint16_t r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      for (int round = 0; round < 20; ++round) bus.endpoint(r).barrier();
      rounds_done.fetch_add(1);
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_EQ(rounds_done.load(), kWorld);
}

TEST(MessageBus, AllReduceSumsAcrossRanks) {
  constexpr std::uint16_t kWorld = 4;
  MessageBus bus(kWorld);
  std::vector<std::vector<double>> results(kWorld);
  std::vector<std::thread> ranks;
  for (std::uint16_t r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      results[r] = bus.endpoint(r).allreduce_sum({static_cast<double>(r), 1.0});
    });
  }
  for (auto& t : ranks) t.join();
  for (std::uint16_t r = 0; r < kWorld; ++r) {
    ASSERT_EQ(results[r].size(), 2U);
    EXPECT_DOUBLE_EQ(results[r][0], 0.0 + 1.0 + 2.0 + 3.0);
    EXPECT_DOUBLE_EQ(results[r][1], 4.0);
  }
}

TEST(MessageBus, RepeatedAllReduces) {
  constexpr std::uint16_t kWorld = 2;
  MessageBus bus(kWorld);
  std::vector<std::thread> ranks;
  std::atomic<bool> mismatch{false};
  for (std::uint16_t r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      for (int round = 1; round <= 50; ++round) {
        const auto result = bus.endpoint(r).allreduce_sum({static_cast<double>(round)});
        if (result.size() != 1 || result[0] != 2.0 * round) mismatch.store(true);
      }
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(MessageBus, WithoutAFaultPlanNoSendIsCounted) {
  // slow_path_sends() counts the sends an attached FaultPlan judged; with
  // no plan attached it stays 0 however much traffic flows.
  MessageBus bus(2);
  for (int i = 0; i < 32; ++i) {
    bus.endpoint(0).send_value<int>(1, 7, i);
    const auto message = bus.endpoint(1).recv(7);
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(Endpoint::value_of<int>(*message), i);
  }
  EXPECT_EQ(bus.slow_path_sends(), 0U);
}

TEST(MessageBus, AttachedFaultPlanJudgesEverySend) {
  // A fault plan (even a benign one) sees every message, so drop/corrupt/
  // delay verdicts and kill/revive state observe all traffic.
  MessageBus bus(2);
  FaultPlan plan(2);
  bus.set_fault_plan(&plan);
  for (int i = 0; i < 8; ++i) bus.endpoint(0).send_value<int>(1, 7, i);
  for (int i = 0; i < 8; ++i) {
    const auto message = bus.endpoint(1).recv(7);
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(Endpoint::value_of<int>(*message), i);
  }
  EXPECT_EQ(bus.slow_path_sends(), 8U);
  // Once detached, sends are delivered but no longer counted.
  bus.set_fault_plan(nullptr);
  bus.endpoint(0).send_value<int>(1, 7, 99);
  const auto unjudged = bus.endpoint(1).recv(7);
  ASSERT_TRUE(unjudged.has_value());
  EXPECT_EQ(Endpoint::value_of<int>(*unjudged), 99);
  EXPECT_EQ(bus.slow_path_sends(), 8U);
}

TEST(MessageBus, UnreceivedMessagesStayStrictlyFifo) {
  // A thousand sends pile up before the receiver reads any: the mailbox
  // is unbounded, nothing is counted, and the receiver sees a strict FIFO
  // sequence.
  MessageBus bus(2);
  constexpr int kMessages = 1000;
  for (int i = 0; i < kMessages; ++i) bus.endpoint(0).send_value<int>(1, 7, i);
  EXPECT_EQ(bus.slow_path_sends(), 0U);
  for (int i = 0; i < kMessages; ++i) {
    const auto message = bus.endpoint(1).recv(7);
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(Endpoint::value_of<int>(*message), i);
  }
  EXPECT_FALSE(bus.endpoint(1).try_recv(kAnyTag).has_value());
}

TEST(MessageBus, ZeroCopyPayloadSharesOneBuffer) {
  // A PayloadPtr send must deliver the *same* buffer, not a copy.
  MessageBus bus(2);
  auto payload = make_payload(std::vector<std::byte>(128, std::byte{0x5A}));
  const std::byte* data = payload->data();
  ASSERT_TRUE(bus.endpoint(0).send(1, 3, payload).ok());
  const auto received = bus.endpoint(1).recv(3);
  ASSERT_TRUE(received.has_value());
  ASSERT_TRUE(received->payload != nullptr);
  EXPECT_EQ(received->payload->data(), data);
  EXPECT_EQ(received->bytes().size(), 128U);
}

TEST(MessageBus, ManySendersOneReceiverDeliverAll) {
  // Every sender rank hammers rank 0's mailbox at once; the receiver must
  // see each sender's messages in order, none lost and none duplicated.
  constexpr std::uint16_t kWorld = 4;
  constexpr int kPerSender = 500;
  MessageBus bus(kWorld);
  std::vector<std::thread> senders;
  for (std::uint16_t r = 1; r < kWorld; ++r) {
    senders.emplace_back([&bus, r] {
      for (int i = 0; i < kPerSender; ++i) {
        bus.endpoint(r).send_value<int>(0, 7, static_cast<int>(r) * kPerSender + i);
      }
    });
  }
  std::vector<int> next(kWorld, 0);  // per-sender FIFO check
  long long sum = 0;
  for (int n = 0; n < kPerSender * (kWorld - 1); ++n) {
    const auto message = bus.endpoint(0).recv(7);
    ASSERT_TRUE(message.has_value());
    const int value = Endpoint::value_of<int>(*message);
    const auto from = message->source;
    ASSERT_EQ(value, static_cast<int>(from) * kPerSender + next[from]);
    ++next[from];
    sum += value;
  }
  for (auto& t : senders) t.join();
  long long expected = 0;
  for (std::uint16_t r = 1; r < kWorld; ++r) {
    for (int i = 0; i < kPerSender; ++i) expected += static_cast<int>(r) * kPerSender + i;
  }
  EXPECT_EQ(sum, expected);
  EXPECT_FALSE(bus.endpoint(0).try_recv(kAnyTag).has_value());
}

TEST(MessageBus, ConcurrentRepliesEachReachTheirOwnWaiter) {
  // The distribution manager's traffic shape: on rank 0 a server thread
  // blocks in recv(request tag) while several fetch threads block in
  // recv_for(own reply tag), all on one mailbox. Threads of the other ranks
  // then send each of them its message at once. Every send must wake the
  // thread it is for, even though the others sleep on the same condition
  // variable; a lost wakeup shows up as a 5 s timeout, or as a watchdog
  // shutdown when it strands the server, which waits without a deadline.
  constexpr std::uint16_t kWorld = 4;
  constexpr int kFetchers = 6;
  constexpr int kRounds = 200;
  constexpr Tag kRequestTag = 0x0F00;        // DistributionManager's request tag
  constexpr Tag kReplyTagBase = 0x80000000;  // ... and its reply-tag window
  constexpr int kSenders = kFetchers + (kWorld - 1);
  MessageBus bus(kWorld);
  // One phase per round: every receiver arrives before it blocks, every
  // sender before it sends, so round r + 1 starts only once round r is in.
  std::barrier round_start(1 + kFetchers + kSenders);
  std::atomic<int> receiving{0};
  std::atomic<int> timeouts{0};
  std::atomic<int> misdelivered{0};
  auto encode = [](int round, int who) { return round * 1000 + who; };
  std::promise<void> finished;
  std::atomic<bool> watchdog_fired{false};
  std::jthread watchdog([&, done = finished.get_future()] {
    if (done.wait_for(std::chrono::seconds(30)) == std::future_status::timeout) {
      watchdog_fired.store(true);
      bus.shutdown();  // releases a stranded receiver with kShutdown
    }
  });
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] {  // rank 0's server
      for (int round = 0; round < kRounds; ++round) {
        round_start.arrive_and_wait();
        receiving.fetch_add(1);
        std::vector<bool> seen(kWorld, false);
        for (int n = 0; n < kWorld - 1; ++n) {
          const auto request = bus.endpoint(0).recv(kRequestTag);
          if (!request || request->tag != kRequestTag || request->source == 0 ||
              seen[request->source] ||
              Endpoint::value_of<int>(*request) != encode(round, request->source)) {
            misdelivered.fetch_add(1);
            continue;
          }
          seen[request->source] = true;
        }
      }
    });
    for (int k = 0; k < kFetchers; ++k) {  // rank 0's fetch threads
      threads.emplace_back([&, k] {
        const Tag mine = kReplyTagBase + static_cast<Tag>(k);
        for (int round = 0; round < kRounds; ++round) {
          round_start.arrive_and_wait();
          receiving.fetch_add(1);
          const auto reply = bus.endpoint(0).recv_for(mine, 5.0);
          if (!reply) {
            if (reply.status().code() == StatusCode::kTimeout) timeouts.fetch_add(1);
            misdelivered.fetch_add(1);
            continue;
          }
          if (reply->tag != mine || reply->source != 1 + k % (kWorld - 1) ||
              Endpoint::value_of<int>(*reply) != encode(round, k)) {
            misdelivered.fetch_add(1);
          }
        }
      });
    }
    // Senders: one replier per fetch thread, one requester per peer rank.
    // Each waits until every receiver of its round is on its way into recv.
    auto send_when_receivers_wait = [&](int round) {
      while (receiving.load() < (round + 1) * (1 + kFetchers)) std::this_thread::yield();
    };
    for (int k = 0; k < kFetchers; ++k) {
      threads.emplace_back([&, k] {
        const auto from = static_cast<Rank>(1 + k % (kWorld - 1));
        for (int round = 0; round < kRounds; ++round) {
          round_start.arrive_and_wait();
          send_when_receivers_wait(round);
          bus.endpoint(from).send_value<int>(0, kReplyTagBase + static_cast<Tag>(k),
                                             encode(round, k));
        }
      });
    }
    for (Rank r = 1; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        for (int round = 0; round < kRounds; ++round) {
          round_start.arrive_and_wait();
          send_when_receivers_wait(round);
          bus.endpoint(r).send_value<int>(0, kRequestTag, encode(round, r));
        }
      });
    }
  }
  finished.set_value();
  watchdog.join();
  EXPECT_FALSE(watchdog_fired.load());
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(misdelivered.load(), 0);
  EXPECT_FALSE(bus.endpoint(0).try_recv(kAnyTag).has_value());
  EXPECT_EQ(bus.slow_path_sends(), 0U);
}

}  // namespace
}  // namespace lobster::comm
