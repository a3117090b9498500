// FeedbackBalancer: EWMA convergence on a step slowdown, hysteresis under
// noise, exactly-once quota partitioning through node kills, knob
// validation, and a concurrent RebalanceBarrier hammer (TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "core/feedback_balancer.hpp"
#include "core/load_balance_config.hpp"

namespace lobster::core {
namespace {

constexpr std::uint32_t kWorld = 4;
constexpr std::uint32_t kBatch = 64;

LoadBalanceConfig knobs_for(std::uint32_t world = kWorld, std::uint32_t batch = kBatch) {
  LoadBalanceConfig knobs;
  knobs.world_size = world;
  knobs.batch_size = batch;
  return knobs;
}

/// Feeds one iteration where every device delivers its current quota and
/// device d takes quota / rate_of(d) seconds — a synthetic cluster whose
/// per-device speed is exactly `rates`.
IterationFeedback feedback_at(IterId iter, const std::vector<std::uint32_t>& quotas,
                              const std::vector<double>& rates) {
  IterationFeedback feedback;
  feedback.iter = iter;
  for (std::uint32_t d = 0; d < quotas.size(); ++d) {
    DeviceFeedback device;
    device.device = d;
    device.delivered = quotas[d];
    device.busy_s = rates[d] > 0.0 ? quotas[d] / rates[d] : 1.0;
    feedback.devices.push_back(device);
  }
  return feedback;
}

std::uint32_t quota_sum(const std::vector<std::uint32_t>& quotas) {
  return std::accumulate(quotas.begin(), quotas.end(), 0u);
}

TEST(LoadBalanceConfigTest, ValidatesKnobs) {
  EXPECT_TRUE(LoadBalanceConfig{}.validate().ok());

  LoadBalanceConfig zero_threads;
  zero_threads.total_load_threads = 0;
  EXPECT_EQ(zero_threads.validate().code(), StatusCode::kInvalid);

  LoadBalanceConfig zero_floor;
  zero_floor.min_threads_per_gpu = 0;
  EXPECT_EQ(zero_floor.validate().code(), StatusCode::kInvalid);

  LoadBalanceConfig bad_tau;
  bad_tau.tau = 0.0;
  EXPECT_EQ(bad_tau.validate().code(), StatusCode::kInvalid);

  LoadBalanceConfig small_pool = knobs_for();
  small_pool.max_pool_threads = 2;  // below world_size = 4
  EXPECT_EQ(small_pool.validate().code(), StatusCode::kInvalid);

  // Quotas must cover every device and sum to the batch size.
  LoadBalanceConfig short_quotas = knobs_for();
  short_quotas.batch_quotas = {kBatch};
  EXPECT_EQ(short_quotas.validate().code(), StatusCode::kInvalid);

  LoadBalanceConfig bad_sum = knobs_for();
  bad_sum.batch_quotas = {16, 16, 16, 17};
  EXPECT_EQ(bad_sum.validate().code(), StatusCode::kInvalid);

  LoadBalanceConfig good = knobs_for();
  good.batch_quotas = {16, 16, 16, 16};
  EXPECT_TRUE(good.validate().ok());
}

TEST(FeedbackBalancerTest, RejectsBadConstruction) {
  // world/batch unknown: the balancer cannot split anything.
  EXPECT_THROW(FeedbackBalancer(LoadBalanceConfig{}, BalancerOptions{}),
               std::invalid_argument);

  BalancerOptions uneven;
  uneven.gpus_per_node = 3;  // does not divide world = 4
  EXPECT_THROW(FeedbackBalancer(knobs_for(), uneven), std::invalid_argument);

  BalancerOptions no_step;
  no_step.max_quota_step = 0;
  EXPECT_THROW(FeedbackBalancer(knobs_for(), no_step), std::invalid_argument);

  BalancerOptions fat_floor;
  fat_floor.min_quota = kBatch;  // 4 * 64 floors > 64 batch
  EXPECT_THROW(FeedbackBalancer(knobs_for(), fat_floor), std::invalid_argument);

  LoadBalanceConfig bad = knobs_for();
  bad.tau = -1.0;
  EXPECT_THROW(FeedbackBalancer(bad, BalancerOptions{}), std::invalid_argument);
}

TEST(FeedbackBalancerTest, InactiveDuringWarmup) {
  BalancerOptions options;
  options.warmup_iters = 3;
  FeedbackBalancer balancer(knobs_for(), options);

  const std::vector<double> rates{100.0, 100.0, 100.0, 25.0};
  std::vector<std::uint32_t> quotas = balancer.current_quotas();
  for (IterId iter = 0; iter < 2; ++iter) {
    balancer.observe(feedback_at(iter, quotas, rates));
    const RebalancePlan plan = balancer.plan(iter + 1);
    EXPECT_FALSE(plan.active) << "iteration " << iter;
    EXPECT_EQ(plan.batch_quotas, quotas) << "warmup must keep the static split";
  }
}

TEST(FeedbackBalancerTest, ConvergesOnStepSlowdown) {
  BalancerOptions options;
  options.gpus_per_node = 2;  // 2 nodes x 2 GPUs so the thread split is visible
  options.warmup_iters = 2;
  options.max_quota_step = 4;
  FeedbackBalancer balancer(knobs_for(), options);

  // Device 3 runs at quarter speed from iteration 0 (a thermal step).
  const std::vector<double> rates{100.0, 100.0, 100.0, 25.0};
  std::vector<std::uint32_t> quotas = balancer.current_quotas();
  ASSERT_EQ(quota_sum(quotas), kBatch);

  constexpr IterId kWindow = 24;
  for (IterId iter = 0; iter < kWindow; ++iter) {
    balancer.observe(feedback_at(iter, quotas, rates));
    const RebalancePlan plan = balancer.plan(iter + 1);
    ASSERT_EQ(quota_sum(plan.batch_quotas), kBatch) << "partition must hold";
    quotas = plan.batch_quotas;
  }

  // Ideal split is proportional to rates: 100/325 * 64 ≈ 19.7 each for the
  // fast devices, 25/325 * 64 ≈ 4.9 for the slow one. EWMA + damping must
  // land within ±2 samples inside the window.
  EXPECT_LE(quotas[3], 7u) << "slow device still overloaded";
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_GE(quotas[d], 18u) << "fast device " << d << " under-fed";
  }

  // Load threads follow the same split within each node and respect the
  // per-GPU floors: on node 1 the slow GPU (device 3) must cede loading
  // threads to its fast neighbour (device 2).
  const RebalancePlan plan = balancer.plan(kWindow + 1);
  ASSERT_EQ(plan.load_threads.size(), kWorld);
  const LoadBalanceConfig knobs = knobs_for();
  for (std::uint32_t d = 0; d < kWorld; ++d) {
    EXPECT_GE(plan.load_threads[d], knobs.min_threads_per_gpu);
  }
  EXPECT_LT(plan.load_threads[3], plan.load_threads[2]);
}

TEST(FeedbackBalancerTest, FlagsSlowNode) {
  BalancerOptions options;
  options.gpus_per_node = 2;  // 2 nodes x 2 GPUs
  options.warmup_iters = 2;
  FeedbackBalancer balancer(knobs_for(), options);

  const std::vector<double> rates{100.0, 100.0, 20.0, 20.0};  // node 1 slow
  std::vector<std::uint32_t> quotas = balancer.current_quotas();
  for (IterId iter = 0; iter < 8; ++iter) {
    balancer.observe(feedback_at(iter, quotas, rates));
    quotas = balancer.plan(iter + 1).batch_quotas;
  }
  const auto slow = balancer.slow_nodes();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0], 1u);
  EXPECT_GE(balancer.slow_node_events(), 1u);
}

TEST(FeedbackBalancerTest, HysteresisHoldsQuotasOnNoisyBalancedLoad) {
  BalancerOptions options;
  options.warmup_iters = 2;
  options.hysteresis = 0.05;
  FeedbackBalancer balancer(knobs_for(), options);

  std::mt19937 rng(42);
  std::uniform_real_distribution<double> noise(0.99, 1.01);  // ±1% jitter

  std::vector<std::uint32_t> quotas = balancer.current_quotas();
  constexpr IterId kIters = 64;
  for (IterId iter = 0; iter < kIters; ++iter) {
    std::vector<double> rates(kWorld);
    for (double& r : rates) r = 100.0 * noise(rng);
    balancer.observe(feedback_at(iter, quotas, rates));
    const RebalancePlan plan = balancer.plan(iter + 1);
    ASSERT_EQ(quota_sum(plan.batch_quotas), kBatch);
    quotas = plan.batch_quotas;
  }

  // Noise within the deadband must not churn quotas: bound total moved
  // samples well below one sample per iteration.
  EXPECT_LE(balancer.quota_moves(), kIters / 4)
      << "balancer oscillates on a balanced workload";
}

TEST(FeedbackBalancerTest, NodeKillDropsQuotaImmediately) {
  BalancerOptions options;
  options.gpus_per_node = 2;
  options.warmup_iters = 2;
  FeedbackBalancer balancer(knobs_for(), options);

  const std::vector<double> rates{100.0, 100.0, 100.0, 100.0};
  std::vector<std::uint32_t> quotas = balancer.current_quotas();
  for (IterId iter = 0; iter < 4; ++iter) {
    balancer.observe(feedback_at(iter, quotas, rates));
    quotas = balancer.plan(iter + 1).batch_quotas;
  }

  balancer.set_node_down(1, true);
  const RebalancePlan plan = balancer.plan(5);
  ASSERT_EQ(quota_sum(plan.batch_quotas), kBatch)
      << "survivors must still partition the whole batch";
  EXPECT_EQ(plan.batch_quotas[2], 0u) << "dead device keeps quota";
  EXPECT_EQ(plan.batch_quotas[3], 0u) << "dead device keeps quota";
  EXPECT_GT(plan.batch_quotas[0], 0u);
  EXPECT_GT(plan.batch_quotas[1], 0u);

  // Revive: the node earns quota back (bounded per step by damping).
  balancer.set_node_down(1, false);
  std::vector<std::uint32_t> prev = plan.batch_quotas;
  for (IterId iter = 6; iter < 30; ++iter) {
    balancer.observe(feedback_at(iter, prev, rates));
    const RebalancePlan next = balancer.plan(iter);
    ASSERT_EQ(quota_sum(next.batch_quotas), kBatch);
    for (std::uint32_t d = 0; d < kWorld; ++d) {
      const std::uint32_t delta = next.batch_quotas[d] > prev[d]
                                      ? next.batch_quotas[d] - prev[d]
                                      : prev[d] - next.batch_quotas[d];
      EXPECT_LE(delta, options.max_quota_step) << "damping violated on device " << d;
    }
    prev = next.batch_quotas;
  }
  EXPECT_GT(prev[2] + prev[3], 0u) << "revived node never re-earns quota";
}

TEST(FeedbackBalancerTest, QuotaTraceRecordsEveryPlan) {
  BalancerOptions options;
  options.warmup_iters = 1;
  FeedbackBalancer balancer(knobs_for(), options);

  const std::vector<double> rates{100.0, 100.0, 100.0, 10.0};
  std::vector<std::uint32_t> quotas = balancer.current_quotas();
  for (IterId iter = 0; iter < 6; ++iter) {
    balancer.observe(feedback_at(iter, quotas, rates));
    quotas = balancer.plan(iter + 1).batch_quotas;
  }
  const auto trace = balancer.quota_trace();
  ASSERT_EQ(trace.size(), 6u);
  std::uint64_t moves = 0;
  for (const auto& entry : trace) {
    EXPECT_EQ(quota_sum(entry.quotas), kBatch);
    moves += entry.quota_moves;
  }
  EXPECT_EQ(moves, balancer.quota_moves());
  EXPECT_GE(balancer.rebalances(), 1u);
}

TEST(RebalanceBarrierTest, AllNodesSeeTheSamePlan) {
  BalancerOptions options;
  options.gpus_per_node = 2;
  options.warmup_iters = 1;
  FeedbackBalancer balancer(knobs_for(), options);
  RebalanceBarrier barrier(balancer, 2);

  const std::vector<double> rates{100.0, 100.0, 25.0, 25.0};
  std::vector<std::uint32_t> quotas = balancer.current_quotas();

  for (IterId iter = 0; iter < 8; ++iter) {
    RebalancePlan plans[2];
    std::thread node1([&] {
      IterationFeedback fb = feedback_at(iter, quotas, rates);
      fb.devices.erase(fb.devices.begin(), fb.devices.begin() + 2);  // node 1's half
      plans[1] = barrier.exchange(iter, 1, fb);
    });
    IterationFeedback fb = feedback_at(iter, quotas, rates);
    fb.devices.resize(2);  // node 0's half
    plans[0] = barrier.exchange(iter, 0, fb);
    node1.join();
    EXPECT_EQ(plans[0].batch_quotas, plans[1].batch_quotas) << "iteration " << iter;
    ASSERT_EQ(quota_sum(plans[0].batch_quotas), kBatch);
    quotas = plans[0].batch_quotas;
  }
  EXPECT_LT(quotas[2] + quotas[3], quotas[0] + quotas[1]);
}

TEST(RebalanceBarrierTest, NodeKillUnblocksWaiters) {
  BalancerOptions options;
  options.gpus_per_node = 2;
  options.warmup_iters = 1;
  FeedbackBalancer balancer(knobs_for(), options);
  RebalanceBarrier barrier(balancer, 2);

  const std::vector<double> rates{100.0, 100.0, 100.0, 100.0};
  const std::vector<std::uint32_t> quotas = balancer.current_quotas();

  RebalancePlan survivor_plan;
  std::thread survivor([&] {
    IterationFeedback fb = feedback_at(0, quotas, rates);
    fb.devices.resize(2);
    survivor_plan = barrier.exchange(0, 0, fb);  // node 1 never shows up
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  barrier.set_node_down(1);
  survivor.join();
  EXPECT_EQ(quota_sum(survivor_plan.batch_quotas), kBatch);

  // A dead node calling in gets a passive snapshot, never blocks.
  const RebalancePlan dead = barrier.exchange(1, 1, feedback_at(1, quotas, rates));
  EXPECT_FALSE(dead.active);
}

// Concurrency hammer: N node threads exchange per-iteration feedback for a
// straggling cluster while a chaos thread kills and revives a node. Run
// under TSan in CI (sanitize-concurrency job); asserts the partition
// invariant on every plan.
TEST(RebalanceBarrierTest, ConcurrentExchangeHammer) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kGpus = 2;
  constexpr IterId kIters = 60;

  BalancerOptions options;
  options.gpus_per_node = kGpus;
  options.warmup_iters = 2;
  FeedbackBalancer balancer(knobs_for(kNodes * kGpus, 128), options);
  RebalanceBarrier barrier(balancer, kNodes);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kNodes);
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    threads.emplace_back([&, node] {
      std::mt19937 rng(1234 + node);
      std::uniform_real_distribution<double> jitter(0.9, 1.1);
      std::vector<std::uint32_t> local(kGpus, 128 / (kNodes * kGpus));
      for (IterId iter = 0; iter < kIters; ++iter) {
        IterationFeedback fb;
        fb.iter = iter;
        for (std::uint32_t g = 0; g < kGpus; ++g) {
          DeviceFeedback device;
          device.device = node * kGpus + g;
          device.delivered = local[g];
          const double rate = (node == kNodes - 1 ? 25.0 : 100.0) * jitter(rng);
          device.busy_s = local[g] / rate;
          fb.devices.push_back(device);
        }
        const RebalancePlan plan = barrier.exchange(iter, node, fb);
        if (!plan.batch_quotas.empty()) {
          if (quota_sum(plan.batch_quotas) != 128) failed = true;
          for (std::uint32_t g = 0; g < kGpus; ++g) {
            local[g] = std::max(plan.batch_quotas[node * kGpus + g], 1u);
          }
        }
      }
    });
  }
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    barrier.set_node_down(1);
    // Readers of the trace race the planners on purpose.
    for (int i = 0; i < 50; ++i) {
      (void)balancer.quota_trace();
      (void)balancer.weights();
      (void)balancer.slow_nodes();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& thread : threads) thread.join();
  chaos.join();
  EXPECT_FALSE(failed.load()) << "a plan broke the batch partition";
  EXPECT_EQ(quota_sum(balancer.current_quotas()), 128u);
}

}  // namespace
}  // namespace lobster::core
