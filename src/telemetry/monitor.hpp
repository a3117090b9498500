// Live pipeline monitor: a background reporter thread that samples the
// metric registry on a fixed interval and emits heartbeats while a run is
// in flight — the "is this experiment healthy?" channel, complementing the
// post-hoc trace analysis in telemetry/analysis.
//
// Each heartbeat goes to two sinks: a human-readable line through the
// logger, and a machine-readable JSONL record (schema
// "lobster.heartbeat.v1") appended to a file. Samples carry anomaly flags:
//  * straggler_gap     — pipeline.gap_frac above the configured threshold
//                        (Eq. 2-3 imbalance visible live);
//  * prefetch_outrun   — prefetched bytes grew faster than consumed bytes
//                        over the interval (§4.4: prefetcher outrunning
//                        training wastes cache);
//  * trace_ring_overflow — the tracer dropped events, so any exported
//                        trace is truncated;
//  * peer_down         — the runtime declared at least one peer dead since
//                        the last sample (comm.peer_down grew): remote
//                        fetches are detouring around a node (DESIGN.md §9);
//  * retry_storm       — remote-fetch retries during the interval exceeded
//                        retry_storm_threshold: the fabric is degraded
//                        enough that the retry budget is burning hot;
//  * iteration_stalled — the iteration watchdog flagged at least one
//                        iteration since the last sample
//                        (executor.iteration_stalls grew): the run is
//                        slow-but-not-dead (DESIGN.md §9);
//  * corruption_detected — at least one remote reply failed end-to-end
//                        verification since the last sample
//                        (comm.corrupt_replies grew): payloads are being
//                        quarantined and re-routed.
//  * job_starved       — the cluster fairness tracker declared at least one
//                        job starved since the last sample
//                        (cluster.job_starvations grew): a queued job has
//                        waited past the starvation threshold (DESIGN.md
//                        §10) and the scheduler policy deserves a look.
//  * slow_node_detected — the feedback balancer classified at least one
//                        node as slow since the last sample
//                        (balancer.slow_node_detected grew): quotas are
//                        draining away from a straggler (DESIGN.md §12).
//  * job_preempt_storm — checkpoint-based preemptions during the interval
//                        exceeded preempt_storm_threshold
//                        (cluster.job_preemptions delta, DESIGN.md §13):
//                        the fair-share policy is thrashing jobs on and
//                        off the cluster instead of letting them run.
//
// sample_once() is public and synchronous so tests (and one-shot CLI use)
// can exercise the exact code path the thread runs, without timing games.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

namespace lobster::telemetry {

class FlightRecorder;

struct MonitorConfig {
  /// Sampling period for the background thread.
  std::chrono::milliseconds interval{1000};
  /// Heartbeat JSONL sink; empty disables the file sink.
  std::string jsonl_path;
  /// Emit the human-readable line through log::info.
  bool log_text = true;
  /// gap_frac above this raises straggler_gap (paper's 10% threshold).
  double straggler_gap_threshold = 0.10;
  /// Remote-fetch retries per interval above this raise retry_storm.
  std::uint64_t retry_storm_threshold = 32;
  /// Job preemptions per interval above this raise job_preempt_storm —
  /// a few evictions are the policy working; a burst is thrash.
  std::uint64_t preempt_storm_threshold = 8;
  /// Flight-recorder wiring (DESIGN.md §11): every heartbeat line is fed
  /// into the recorder's ring, and any sample with an anomaly flag triggers
  /// an incident dump (named after the first raised flag). The recorder
  /// must outlive the monitor. nullptr = no recording.
  FlightRecorder* recorder = nullptr;
};

/// One registry sample with interval deltas and derived anomaly flags.
struct MonitorSample {
  std::uint64_t seq = 0;
  double uptime_s = 0.0;

  // Absolute values at sample time.
  std::uint64_t iterations = 0;
  std::uint64_t imbalanced_iterations = 0;
  double gap_frac = 0.0;
  std::uint64_t bytes_consumed = 0;
  std::uint64_t prefetch_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t peer_down_events = 0;  ///< comm.peer_down counter
  std::uint64_t retries = 0;           ///< comm.retries counter
  std::uint64_t iteration_stalls = 0;  ///< executor.iteration_stalls counter
  std::uint64_t corrupt_replies = 0;   ///< comm.corrupt_replies counter
  std::uint64_t job_starvations = 0;   ///< cluster.job_starvations counter
  std::uint64_t job_preemptions = 0;   ///< cluster.job_preemptions counter
  std::uint64_t slow_node_events = 0;  ///< balancer.slow_node_detected counter
  double jobs_running = 0.0;           ///< cluster.jobs_running gauge
  double jobs_queued = 0.0;            ///< cluster.jobs_queued gauge

  // Deltas since the previous sample (== absolutes on the first one).
  std::uint64_t d_iterations = 0;
  std::uint64_t d_bytes_consumed = 0;
  std::uint64_t d_prefetch_bytes = 0;
  std::uint64_t d_peer_down_events = 0;
  std::uint64_t d_retries = 0;
  std::uint64_t d_iteration_stalls = 0;
  std::uint64_t d_corrupt_replies = 0;
  std::uint64_t d_job_starvations = 0;
  std::uint64_t d_job_preemptions = 0;
  std::uint64_t d_slow_node_events = 0;

  bool straggler_gap = false;
  bool prefetch_outrun = false;
  bool trace_ring_overflow = false;
  bool peer_down = false;
  bool retry_storm = false;
  bool iteration_stalled = false;
  bool corruption_detected = false;
  bool job_starved = false;
  bool slow_node_detected = false;
  bool job_preempt_storm = false;

  bool any_flag() const noexcept {
    return straggler_gap || prefetch_outrun || trace_ring_overflow || peer_down ||
           retry_storm || iteration_stalled || corruption_detected || job_starved ||
           slow_node_detected || job_preempt_storm;
  }
  double cache_hit_ratio() const noexcept {
    const auto total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / static_cast<double>(total) : 0.0;
  }
};

class Monitor {
 public:
  explicit Monitor(MonitorConfig config = {});
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Launches the reporter thread; no-op when already running.
  void start();
  /// Stops and joins the thread, emitting one final sample; no-op when idle.
  void stop();
  bool running() const noexcept { return running_; }

  /// Takes one sample, updates delta state, emits to the configured sinks,
  /// and returns it. Thread-safe; this is exactly what the thread does.
  MonitorSample sample_once();

  /// Heartbeats emitted so far (thread + manual sample_once calls).
  std::uint64_t samples_emitted() const noexcept { return seq_; }

 private:
  void emit(const MonitorSample& sample);

  MonitorConfig config_;
  std::mutex mutex_;  ///< guards prev_/out_ against thread + manual races
  MonitorSample prev_;
  bool has_prev_ = false;
  std::ofstream out_;
  bool out_open_ = false;
  std::chrono::steady_clock::time_point started_at_;
  std::uint64_t seq_ = 0;
  bool running_ = false;
  std::condition_variable_any cv_;
  std::jthread thread_;
};

}  // namespace lobster::telemetry
