// Crash-consistent job checkpointing (DESIGN.md §13): wire-format round
// trips, every corruption rejection path, atomic file save/load, balancer
// EWMA state restore, watchdog pause bracketing, preemptive fair-share
// eviction, and end-to-end determinism — a preempted/resumed (and resized)
// cluster run must deliver the exact sample stream, in order, that an
// uninterrupted isolated run delivers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/checkpoint.hpp"
#include "cluster/cluster_runtime.hpp"
#include "cluster/job.hpp"
#include "cluster/scheduler.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/feedback_balancer.hpp"
#include "core/load_balance_config.hpp"
#include "data/dataset.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/watchdog.hpp"
#include "telemetry/registry.hpp"

namespace lobster::cluster {
namespace {

JobSpec spec_for(std::string name, std::uint16_t nodes, std::uint32_t epochs = 2,
                 double weight = 1.0, std::uint64_t arrival = 0) {
  JobSpec spec;
  spec.name = std::move(name);
  spec.nodes = nodes;
  spec.gpus_per_node = 2;
  spec.batch_size = 4;
  spec.epochs = epochs;
  spec.weight = weight;
  spec.arrival_round = arrival;
  spec.dataset = data::DatasetSpec::uniform(256, 4096, "ckpt-test");
  return spec;
}

/// A checkpoint exercising every field: quotas, balancer history, and a
/// residency manifest whose checksum is the real inventory checksum.
JobCheckpoint full_checkpoint() {
  JobCheckpoint cp;
  cp.job_id = 7;
  cp.name = "trainer-7";
  cp.dataset_fingerprint = 0xFEEDFACE12345678ULL;
  cp.sampler_seed = 99;
  cp.epoch = 3;
  cp.cursor = 1234;
  cp.delivered_total = 99'999;
  cp.delivery_digest = delivery_digest_advance(0, 42);
  cp.width = 4;
  cp.gpus_per_node = 2;
  cp.batch_size = 32;
  cp.quotas = {9, 8, 8, 7, 9, 8, 8, 7};
  cp.has_balancer = true;
  cp.balancer.devices = {{123.5, 6, false}, {88.25, 6, true}};
  cp.balancer.quotas = {17, 15};
  cp.balancer.applied_weights = {0.53, 0.47};
  cp.balancer.applied_targets = {17, 15};
  cp.balancer.observed_iters = 6;
  cp.residency = {{11, 0, 4096}, {57, 3, 4096}, {200, 1, 4096}};
  std::vector<SampleId> samples;
  for (const auto& entry : cp.residency) samples.push_back(entry.sample);
  cp.residency_checksum = runtime::inventory_checksum(samples);
  return cp;
}

// ---------------------------------------------------------------------------
// Delivery digest
// ---------------------------------------------------------------------------

TEST(DeliveryDigest, OrderSensitiveAndDeterministic) {
  std::uint64_t a = 0, b = 0, swapped = 0;
  for (SampleId s : {3UL, 1UL, 4UL, 1UL, 5UL}) a = delivery_digest_advance(a, s);
  for (SampleId s : {3UL, 1UL, 4UL, 1UL, 5UL}) b = delivery_digest_advance(b, s);
  for (SampleId s : {1UL, 3UL, 4UL, 1UL, 5UL}) swapped = delivery_digest_advance(swapped, s);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, swapped);  // same multiset, different order
}

// ---------------------------------------------------------------------------
// CRC32 trailer
// ---------------------------------------------------------------------------

/// Bytewise CRC32 (IEEE, reflected): the reference the table-driven codec
/// must match bit for bit.
std::uint32_t crc32_bytewise(std::span<const std::byte> bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    crc ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(CheckpointCrc, KnownAnswer) {
  const std::string check = "123456789";
  const auto bytes = std::as_bytes(std::span<const char>(check.data(), check.size()));
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32_bytewise(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(CheckpointCrc, MatchesBytewiseAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLength = 4099;
  constexpr std::size_t kAlignments = 8;
  std::vector<std::byte> buffer(kMaxLength + kAlignments);
  std::uint32_t state = 0x9E3779B9u;
  for (std::byte& b : buffer) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<std::byte>(state >> 24);
  }
  // Every length from 0 to kMaxLength. The start offset steps once per eight
  // lengths, so every (start alignment, tail length) pair is covered.
  for (std::size_t length = 0; length <= kMaxLength; ++length) {
    const std::size_t offset = (length / kAlignments) % kAlignments;
    const std::span<const std::byte> slice(buffer.data() + offset, length);
    ASSERT_EQ(crc32(slice), crc32_bytewise(slice)) << "length " << length;
  }
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(CheckpointWire, RoundTripPreservesEveryField) {
  const JobCheckpoint cp = full_checkpoint();
  const auto bytes = serialize(cp);
  auto parsed = deserialize(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const JobCheckpoint& out = parsed.value();

  EXPECT_EQ(out.job_id, cp.job_id);
  EXPECT_EQ(out.name, cp.name);
  EXPECT_EQ(out.dataset_fingerprint, cp.dataset_fingerprint);
  EXPECT_EQ(out.sampler_seed, cp.sampler_seed);
  EXPECT_EQ(out.epoch, cp.epoch);
  EXPECT_EQ(out.cursor, cp.cursor);
  EXPECT_EQ(out.delivered_total, cp.delivered_total);
  EXPECT_EQ(out.delivery_digest, cp.delivery_digest);
  EXPECT_EQ(out.width, cp.width);
  EXPECT_EQ(out.gpus_per_node, cp.gpus_per_node);
  EXPECT_EQ(out.batch_size, cp.batch_size);
  EXPECT_EQ(out.quotas, cp.quotas);
  ASSERT_TRUE(out.has_balancer);
  ASSERT_EQ(out.balancer.devices.size(), cp.balancer.devices.size());
  for (std::size_t d = 0; d < cp.balancer.devices.size(); ++d) {
    EXPECT_DOUBLE_EQ(out.balancer.devices[d].ewma, cp.balancer.devices[d].ewma);
    EXPECT_EQ(out.balancer.devices[d].observations, cp.balancer.devices[d].observations);
    EXPECT_EQ(out.balancer.devices[d].down, cp.balancer.devices[d].down);
  }
  EXPECT_EQ(out.balancer.quotas, cp.balancer.quotas);
  EXPECT_EQ(out.balancer.applied_targets, cp.balancer.applied_targets);
  EXPECT_EQ(out.balancer.observed_iters, cp.balancer.observed_iters);
  ASSERT_EQ(out.residency.size(), cp.residency.size());
  for (std::size_t e = 0; e < cp.residency.size(); ++e) {
    EXPECT_EQ(out.residency[e].sample, cp.residency[e].sample);
    EXPECT_EQ(out.residency[e].local_holder, cp.residency[e].local_holder);
    EXPECT_EQ(out.residency[e].bytes, cp.residency[e].bytes);
  }
  EXPECT_EQ(out.residency_checksum, cp.residency_checksum);
}

TEST(CheckpointWire, RoundTripWithoutBalancerOrResidency) {
  JobCheckpoint cp;
  cp.job_id = 1;
  cp.name = "bare";
  cp.width = 2;
  cp.gpus_per_node = 1;
  cp.batch_size = 8;
  cp.residency_checksum = runtime::inventory_checksum({});
  auto parsed = deserialize(serialize(cp));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().has_balancer);
  EXPECT_TRUE(parsed.value().residency.empty());
}

TEST(CheckpointWire, EveryCorruptionIsRejectedAsCorrupt) {
  const auto bytes = serialize(full_checkpoint());

  // Flip one byte anywhere in the body: CRC must catch it.
  auto flipped = bytes;
  flipped[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_EQ(deserialize(flipped).status().code(), StatusCode::kCorrupt);

  // Truncation at several cut points, including mid-header and mid-trailer.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    auto cut = bytes;
    cut.resize(keep);
    EXPECT_EQ(deserialize(cut).status().code(), StatusCode::kCorrupt) << "keep=" << keep;
  }

  // Bad magic.
  auto magic = bytes;
  magic[0] ^= std::byte{0xFF};
  EXPECT_EQ(deserialize(magic).status().code(), StatusCode::kCorrupt);

  // Appended garbage breaks the CRC trailer.
  auto longer = bytes;
  longer.push_back(std::byte{0xAB});
  EXPECT_EQ(deserialize(longer).status().code(), StatusCode::kCorrupt);
}

TEST(CheckpointWire, ResidencyChecksumMismatchIsCorrupt) {
  JobCheckpoint cp = full_checkpoint();
  cp.residency_checksum ^= 1;  // manifest disagrees with its own checksum
  const auto parsed = deserialize(serialize(cp));
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorrupt);
}

/// Re-computes the CRC trailer, so a mutated body reaches the field decoder.
void reseal(std::vector<std::byte>& bytes) {
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = crc32(std::span<const std::byte>(bytes).first(body));
  std::memcpy(bytes.data() + body, &crc, sizeof crc);
}

std::uint32_t u32_at(const std::vector<std::byte>& bytes, std::size_t offset) {
  std::uint32_t value = 0;
  std::memcpy(&value, bytes.data() + offset, sizeof value);
  return value;
}

void set_u32(std::vector<std::byte>& bytes, std::size_t offset, std::uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

/// The count fields of serialize(full_checkpoint()), in wire order.
struct CountField {
  const char* name;
  std::size_t offset;       ///< byte offset of the u32 count
  std::uint32_t count;      ///< its true value
  std::size_t entry_bytes;  ///< wire bytes per entry
  std::uint32_t bound;      ///< largest count the decoder accepts
};

constexpr std::uint32_t kMaxCheckpointEntries = 1u << 26;

const std::vector<CountField> kCountFields = {
    {"name", 10, 9, 1, 4096},
    {"quotas", 75, 8, 4, kMaxCheckpointEntries},
    {"devices", 112, 2, 17, kMaxCheckpointEntries},
    {"balancer quotas", 150, 2, 4, kMaxCheckpointEntries},
    {"weights", 162, 2, 8, kMaxCheckpointEntries},
    {"targets", 182, 2, 4, kMaxCheckpointEntries},
    {"residency", 202, 3, 14, kMaxCheckpointEntries},
};

TEST(CheckpointWire, AnOverBoundCountIsCorruptEvenWithoutEntries) {
  // A quotas count past the bound with no entries after it, the rest of the
  // checkpoint intact and the CRC valid: the count alone fails the decode.
  JobCheckpoint cp = full_checkpoint();
  cp.quotas.clear();
  auto bytes = serialize(cp);
  ASSERT_EQ(u32_at(bytes, 75), 0U);
  for (const std::uint32_t count : {kMaxCheckpointEntries + 1, kMaxCheckpointEntries}) {
    set_u32(bytes, 75, count);
    reseal(bytes);
    EXPECT_EQ(deserialize(bytes).status().code(), StatusCode::kCorrupt) << count;
  }
}

TEST(CheckpointWire, SeededFalseCountsWithAValidCrcNeverDecodeWrong) {
  // Each count field of a valid checkpoint is set to a false value near its
  // true count, its bound, or what the bytes left can hold, or to a random
  // word; the CRC is re-sealed so the field decoder runs. A count past its
  // bound, or one the bytes left cannot hold, must fail the decode. Any
  // other must fail too or decode to a checkpoint that round-trips. Runs
  // under ASan/UBSan in CI.
  const auto clean = serialize(full_checkpoint());
  ASSERT_EQ(clean.size(), 260U);
  for (const auto& field : kCountFields) {
    ASSERT_EQ(u32_at(clean, field.offset), field.count) << field.name;
  }
  Rng rng(0xC0DE);
  std::size_t rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    const CountField& field = kCountFields[rng.bounded(kCountFields.size())];
    const std::size_t left = clean.size() - sizeof(std::uint32_t) - field.offset - 4;
    const auto jitter = static_cast<std::uint32_t>(rng.bounded(5));
    std::uint32_t value = 0;
    switch (rng.bounded(4)) {
      case 0: value = field.count + jitter - 2; break;
      case 1: value = field.bound + jitter - 2; break;
      case 2: value = static_cast<std::uint32_t>(left / field.entry_bytes) + jitter - 2; break;
      default: value = static_cast<std::uint32_t>(rng.bounded(std::uint64_t{1} << 32)); break;
    }
    if (value == field.count) continue;
    auto bytes = clean;
    set_u32(bytes, field.offset, value);
    reseal(bytes);
    const auto parsed = deserialize(bytes);
    const bool must_fail =
        value > field.bound || std::uint64_t{value} * field.entry_bytes > left;
    if (!parsed.ok()) {
      ++rejected;
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorrupt);
      continue;
    }
    EXPECT_FALSE(must_fail) << field.name << " count " << value << " decoded";
    EXPECT_TRUE(deserialize(serialize(parsed.value())).ok()) << field.name << " " << value;
  }
  EXPECT_GT(rejected, 0U);
}

// ---------------------------------------------------------------------------
// File save/load
// ---------------------------------------------------------------------------

TEST(CheckpointFile, SaveLoadRoundTripAndFailureModes) {
  const auto dir = std::filesystem::temp_directory_path() / "lobster_ckpt_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "job7.ckpt").string();

  const JobCheckpoint cp = full_checkpoint();
  ASSERT_TRUE(save_file(cp, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // atomic rename

  auto loaded = load_file(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().delivery_digest, cp.delivery_digest);
  EXPECT_EQ(loaded.value().cursor, cp.cursor);

  EXPECT_EQ(load_file((dir / "missing.ckpt").string()).status().code(),
            StatusCode::kNotFound);

  // Truncate the file on disk: integrity failure, not not-found.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 5);
  EXPECT_EQ(load_file(path).status().code(), StatusCode::kCorrupt);

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// FeedbackBalancer state restore (warm EWMA history across preemption)
// ---------------------------------------------------------------------------

core::IterationFeedback balancer_feedback(IterId iter, const std::vector<std::uint32_t>& quotas,
                                          const std::vector<double>& rates) {
  core::IterationFeedback feedback;
  feedback.iter = iter;
  for (std::uint32_t d = 0; d < quotas.size(); ++d) {
    core::DeviceFeedback device;
    device.device = d;
    device.delivered = quotas[d];
    device.busy_s = quotas[d] / rates[d];
    feedback.devices.push_back(device);
  }
  return feedback;
}

TEST(BalancerState, RestoreResumesWithoutWarmupFromScratch) {
  core::LoadBalanceConfig knobs;
  knobs.world_size = 4;
  knobs.batch_size = 64;
  core::BalancerOptions options;
  options.gpus_per_node = 2;

  core::FeedbackBalancer original(knobs, options);
  const std::vector<double> rates = {10.0, 10.0, 10.0, 5.0};  // device 3 is slow
  for (IterId i = 0; i < 6; ++i) {
    original.observe(balancer_feedback(i, original.current_quotas(), rates));
    original.plan(i + 1);
  }
  const auto state = original.export_state();
  EXPECT_EQ(state.observed_iters, 6u);

  core::FeedbackBalancer restored(knobs, options);
  restored.restore_state(state);
  EXPECT_EQ(restored.current_quotas(), original.current_quotas());

  // Both continue identically from the restored history.
  const auto next = balancer_feedback(6, original.current_quotas(), rates);
  original.observe(next);
  restored.observe(next);
  original.plan(7);
  restored.plan(7);
  EXPECT_EQ(restored.current_quotas(), original.current_quotas());

  // A checkpoint from a different world shape must be refused.
  core::LoadBalanceConfig narrow = knobs;
  narrow.world_size = 2;
  narrow.batch_size = 64;
  core::FeedbackBalancer wrong_shape(narrow, core::BalancerOptions{});
  EXPECT_THROW(wrong_shape.restore_state(state), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Watchdog pause bracket
// ---------------------------------------------------------------------------

TEST(WatchdogPause, CheckpointStretchNeverCountsAsStall) {
  runtime::WatchdogConfig config;
  config.multiplier = 1.0;
  config.min_deadline = 0.01;  // 10ms: the pause below would blow through it
  config.window = 4;
  runtime::IterationWatchdog watchdog(config);
  watchdog.start();

  watchdog.begin_iteration(0);
  {
    runtime::WatchdogPause guard(&watchdog);
    EXPECT_TRUE(watchdog.paused());
    // begin_iteration is a no-op while paused: a restore is not an iteration.
    watchdog.begin_iteration(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_FALSE(watchdog.paused());
  watchdog.stop();
  EXPECT_EQ(watchdog.stalls(), 0u);

  runtime::WatchdogPause null_guard(nullptr);  // null watchdog is a no-op
}

// ---------------------------------------------------------------------------
// JobManager: preemptive fair share
// ---------------------------------------------------------------------------

PreemptionPolicy eager_policy() {
  PreemptionPolicy policy;
  policy.min_deficit = 1.0;
  policy.min_deficit_gap = 0.5;
  policy.cooldown_rounds = 0;
  policy.max_preemptions_per_job = 2;
  policy.max_victims = 1;
  return policy;
}

TEST(JobManagerPreemptive, HighDeficitWaiterEvictsLowestDeficitRunner) {
  JobManager manager(8, SchedulerPolicy::kFairSharePreemptive);
  manager.set_preemption_policy(eager_policy());
  std::vector<JobId> hook_calls;
  manager.set_preempt_hook(
      [&hook_calls](JobId id, std::uint64_t) { hook_calls.push_back(id); });

  const JobId a = manager.submit(spec_for("a", 4), 0);
  const JobId b = manager.submit(spec_for("b", 4), 0);
  ASSERT_EQ(manager.admit(0).size(), 2u);

  const JobId heavy = manager.submit(spec_for("heavy", 4, 2, 4.0), 1);
  const auto admitted = manager.admit(2);  // heavy's deficit = 1 round x 4.0
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted.front(), heavy);
  EXPECT_EQ(manager.preemptions(), 1u);
  ASSERT_EQ(hook_calls.size(), 1u);  // checkpoint hook fired for the victim
  const JobId victim = hook_calls.front();
  EXPECT_TRUE(victim == a || victim == b);
  EXPECT_EQ(manager.record(victim).state, JobState::kPreempted);
  EXPECT_EQ(manager.record(victim).preempt_count, 1u);

  // The victim re-enters the admission pool and resumes once capacity frees.
  manager.finish(heavy, 5);
  const auto resumed = manager.admit(6);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed.front(), victim);
  EXPECT_EQ(manager.resumes(), 1u);
  EXPECT_EQ(manager.record(victim).state, JobState::kRunning);
  // The preempted stretch is banked into total wait, not dropped.
  EXPECT_EQ(manager.record(victim).total_wait_rounds, 4u);
}

TEST(JobManagerPreemptive, CooldownShieldsFreshlyStartedJobs) {
  JobManager manager(8, SchedulerPolicy::kFairSharePreemptive);
  auto policy = eager_policy();
  policy.cooldown_rounds = 100;
  manager.set_preemption_policy(policy);

  manager.submit(spec_for("a", 4), 0);
  manager.submit(spec_for("b", 4), 0);
  manager.admit(0);
  manager.submit(spec_for("heavy", 4, 2, 4.0), 1);
  EXPECT_TRUE(manager.admit(3).empty());  // nobody has run past the cooldown
  EXPECT_EQ(manager.preemptions(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism through preemption and elastic resizing
// ---------------------------------------------------------------------------

TEST(ClusterCheckpointE2E, PreemptedJobsResumeExactlyOnceAndDigestIdentical) {
  telemetry::MetricRegistry::instance().reset();
  ClusterConfig config;
  config.nodes = 8;
  config.policy = SchedulerPolicy::kFairSharePreemptive;
  config.preemption.min_deficit = 1.0;
  config.preemption.min_deficit_gap = 0.5;
  config.preemption.cooldown_rounds = 2;
  config.preemption.max_victims = 1;
  config.elastic_resize = false;  // isolate the preemption path

  ClusterRuntime runtime(config);
  runtime.submit(spec_for("steady-a", 4, 3));
  runtime.submit(spec_for("steady-b", 4, 3));
  runtime.submit(spec_for("burst", 4, 1, 4.0, 2));
  const ClusterResult result = runtime.run();

  EXPECT_GE(result.preemptions, 1u);
  EXPECT_GE(result.resumes, 1u);
  EXPECT_GE(result.checkpoints_cut, 1u);
  EXPECT_GT(result.checkpoint_bytes, 0u);
  ASSERT_EQ(result.jobs.size(), 3u);
  for (const JobOutcome& job : result.jobs) {
    EXPECT_EQ(job.state, JobState::kFinished) << job.name;
    // Exactly-once: the full permutation of every epoch, nothing dropped or
    // replayed across the preempt/resume cycle.
    EXPECT_EQ(job.samples_delivered, job.samples_expected) << job.name;
    // Byte-identity: the delivered stream folds to the isolated run's digest.
    EXPECT_TRUE(job.digest_match) << job.name;
    EXPECT_EQ(job.delivery_digest, job.isolated_digest) << job.name;
  }
  EXPECT_EQ(result.digest_matches, 3u);
  EXPECT_EQ(result.digest_mismatches, 0u);
  const auto preempted_jobs = [&result] {
    std::uint32_t count = 0;
    for (const JobOutcome& job : result.jobs) count += job.preemptions > 0 ? 1 : 0;
    return count;
  }();
  EXPECT_GE(preempted_jobs, 1u);
}

TEST(ClusterCheckpointE2E, ElasticJobShrinksGrowsAndStaysDeterministic) {
  telemetry::MetricRegistry::instance().reset();
  ClusterConfig config;
  config.nodes = 6;
  config.policy = SchedulerPolicy::kFairShare;
  config.elastic_resize = true;

  ClusterRuntime runtime(config);
  JobSpec elastic = spec_for("elastic", 4, 5);
  elastic.min_nodes = 2;
  elastic.max_nodes = 8;
  const JobId elastic_id = runtime.submit(elastic);
  runtime.submit(spec_for("rigid", 4, 1, 1.0, 2));  // cannot fit beside width-4
  const ClusterResult result = runtime.run();

  EXPECT_GE(result.resizes, 2u);
  ASSERT_EQ(result.jobs.size(), 2u);
  for (const JobOutcome& job : result.jobs) {
    EXPECT_EQ(job.state, JobState::kFinished) << job.name;
    EXPECT_EQ(job.samples_delivered, job.samples_expected) << job.name;
    EXPECT_TRUE(job.digest_match) << job.name;
  }
  const JobOutcome& out = result.jobs[elastic_id];
  ASSERT_EQ(out.id, elastic_id);
  // Shrank under queue pressure, grew back into the freed capacity — and the
  // digest still matches the isolated spec-width run: the delivery stream is
  // width-invariant across the whole resize history.
  EXPECT_GE(out.shrinks, 1u);
  EXPECT_GE(out.grows, 1u);
  EXPECT_EQ(out.final_width, 6u);
  EXPECT_EQ(out.delivery_digest, out.isolated_digest);
}

}  // namespace
}  // namespace lobster::cluster
