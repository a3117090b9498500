#include "telemetry/monitor.hpp"

#include <string>

#include "common/logging.hpp"
#include "common/strfmt.hpp"
#include "telemetry/analysis/json.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace lobster::telemetry {

namespace {

std::uint64_t saturating_sub(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : 0;
}

void append_kv(std::string& out, const char* key, std::uint64_t value) {
  analysis::append_json_quoted(out, key);
  out += strf(":%llu", static_cast<unsigned long long>(value));
}

void append_kv(std::string& out, const char* key, double value) {
  analysis::append_json_quoted(out, key);
  out += strf(":%.6f", value);
}

void append_kv(std::string& out, const char* key, bool value) {
  analysis::append_json_quoted(out, key);
  out += value ? ":true" : ":false";
}

/// Incident reason string: the first raised flag, in declaration order.
const char* first_flag_name(const MonitorSample& sample) noexcept {
  if (sample.straggler_gap) return "straggler_gap";
  if (sample.prefetch_outrun) return "prefetch_outrun";
  if (sample.trace_ring_overflow) return "trace_ring_overflow";
  if (sample.peer_down) return "peer_down";
  if (sample.retry_storm) return "retry_storm";
  if (sample.iteration_stalled) return "iteration_stalled";
  if (sample.corruption_detected) return "corruption_detected";
  if (sample.job_starved) return "job_starved";
  if (sample.slow_node_detected) return "slow_node_detected";
  if (sample.job_preempt_storm) return "job_preempt_storm";
  return "anomaly";
}

}  // namespace

Monitor::Monitor(MonitorConfig config)
    : config_(std::move(config)), started_at_(std::chrono::steady_clock::now()) {
  if (!config_.jsonl_path.empty()) {
    out_.open(config_.jsonl_path, std::ios::out | std::ios::trunc);
    out_open_ = out_.is_open();
    if (!out_open_) {
      log::warn("monitor: cannot open heartbeat sink %s", config_.jsonl_path.c_str());
    }
  }
}

Monitor::~Monitor() { stop(); }

void Monitor::start() {
  if (running_) return;
  running_ = true;
  thread_ = std::jthread([this](std::stop_token stop) {
    std::mutex wait_mutex;
    std::unique_lock lock(wait_mutex);
    while (!stop.stop_requested()) {
      // Wake early on stop_requested; otherwise tick on the interval.
      if (cv_.wait_for(lock, stop, config_.interval,
                       [&stop] { return stop.stop_requested(); })) {
        break;
      }
      sample_once();
    }
  });
}

void Monitor::stop() {
  if (!running_) return;
  thread_.request_stop();
  cv_.notify_all();
  thread_.join();
  running_ = false;
  // Final heartbeat so short runs always leave at least one record.
  sample_once();
  const std::scoped_lock lock(mutex_);
  if (out_open_) out_.flush();
}

MonitorSample Monitor::sample_once() {
  auto& registry = MetricRegistry::instance();
  auto& tracer = Tracer::instance();

  MonitorSample sample;
  sample.uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at_).count();
  sample.iterations = registry.counter("pipeline.iterations").value();
  sample.imbalanced_iterations = registry.counter("pipeline.imbalanced_iterations").value();
  sample.gap_frac = registry.gauge("pipeline.gap_frac").value();
  sample.bytes_consumed = registry.counter("pipeline.bytes_consumed").value();
  sample.prefetch_bytes = registry.counter("prefetch.bytes").value();
  sample.cache_hits = registry.counter("cache.hits").value();
  sample.cache_misses = registry.counter("cache.misses").value();
  sample.trace_emitted = tracer.emitted_events();
  sample.trace_dropped = tracer.dropped_events();
  sample.peer_down_events = registry.counter("comm.peer_down").value();
  sample.retries = registry.counter("comm.retries").value();
  sample.iteration_stalls = registry.counter("executor.iteration_stalls").value();
  sample.corrupt_replies = registry.counter("comm.corrupt_replies").value();
  sample.job_starvations = registry.counter("cluster.job_starvations").value();
  sample.job_preemptions = registry.counter("cluster.job_preemptions").value();
  sample.slow_node_events = registry.counter("balancer.slow_node_detected").value();
  sample.jobs_running = registry.gauge("cluster.jobs_running").value();
  sample.jobs_queued = registry.gauge("cluster.jobs_queued").value();

  {
    const std::scoped_lock lock(mutex_);
    sample.seq = ++seq_;  // 1-based: seq_ doubles as the emitted count
    if (has_prev_) {
      sample.d_iterations = saturating_sub(sample.iterations, prev_.iterations);
      sample.d_bytes_consumed = saturating_sub(sample.bytes_consumed, prev_.bytes_consumed);
      sample.d_prefetch_bytes = saturating_sub(sample.prefetch_bytes, prev_.prefetch_bytes);
      sample.d_peer_down_events = saturating_sub(sample.peer_down_events, prev_.peer_down_events);
      sample.d_retries = saturating_sub(sample.retries, prev_.retries);
      sample.d_iteration_stalls = saturating_sub(sample.iteration_stalls, prev_.iteration_stalls);
      sample.d_corrupt_replies = saturating_sub(sample.corrupt_replies, prev_.corrupt_replies);
      sample.d_job_starvations = saturating_sub(sample.job_starvations, prev_.job_starvations);
      sample.d_job_preemptions = saturating_sub(sample.job_preemptions, prev_.job_preemptions);
      sample.d_slow_node_events = saturating_sub(sample.slow_node_events, prev_.slow_node_events);
    } else {
      sample.d_iterations = sample.iterations;
      sample.d_bytes_consumed = sample.bytes_consumed;
      sample.d_prefetch_bytes = sample.prefetch_bytes;
      sample.d_peer_down_events = sample.peer_down_events;
      sample.d_retries = sample.retries;
      sample.d_iteration_stalls = sample.iteration_stalls;
      sample.d_corrupt_replies = sample.corrupt_replies;
      sample.d_job_starvations = sample.job_starvations;
      sample.d_job_preemptions = sample.job_preemptions;
      sample.d_slow_node_events = sample.slow_node_events;
    }

    sample.straggler_gap = sample.gap_frac > config_.straggler_gap_threshold;
    // §4.4: the prefetcher pulling in more bytes than training consumed over
    // the same window means it is outrunning consumption.
    sample.prefetch_outrun = sample.d_prefetch_bytes > 0 &&
                             sample.d_prefetch_bytes > sample.d_bytes_consumed;
    sample.trace_ring_overflow = sample.trace_dropped > 0;
    // Delta-based: the flags clear on the first healthy interval after the
    // fault, instead of latching for the rest of the run.
    sample.peer_down = sample.d_peer_down_events > 0;
    sample.retry_storm = sample.d_retries > config_.retry_storm_threshold;
    sample.iteration_stalled = sample.d_iteration_stalls > 0;
    sample.corruption_detected = sample.d_corrupt_replies > 0;
    sample.job_starved = sample.d_job_starvations > 0;
    sample.slow_node_detected = sample.d_slow_node_events > 0;
    sample.job_preempt_storm = sample.d_job_preemptions > config_.preempt_storm_threshold;

    prev_ = sample;
    has_prev_ = true;
    emit(sample);
  }

  // Mirror drop accounting into the registry so the CSV dump records it
  // even when nobody exports a trace.
  registry.gauge("telemetry.dropped_events").set(static_cast<double>(sample.trace_dropped));

  // Trigger outside mutex_: the dump is file I/O, and the recorder snapshots
  // its own state under its own lock. The recorder's cooldown/cap keeps a
  // persistently-flagged run from flooding the disk with bundles.
  if (config_.recorder != nullptr && sample.any_flag()) {
    config_.recorder->trigger(first_flag_name(sample));
  }
  return sample;
}

void Monitor::emit(const MonitorSample& sample) {
  if (config_.log_text) {
    std::string flags;
    if (sample.straggler_gap) flags += " straggler_gap";
    if (sample.prefetch_outrun) flags += " prefetch_outrun";
    if (sample.trace_ring_overflow) flags += " trace_ring_overflow";
    if (sample.peer_down) flags += " peer_down";
    if (sample.retry_storm) flags += " retry_storm";
    if (sample.iteration_stalled) flags += " iteration_stalled";
    if (sample.corruption_detected) flags += " corruption_detected";
    if (sample.job_starved) flags += " job_starved";
    if (sample.slow_node_detected) flags += " slow_node_detected";
    if (sample.job_preempt_storm) flags += " job_preempt_storm";
    log::info("heartbeat #%llu t=%.1fs iters=%llu(+%llu) gap=%.3f hit=%.3f "
              "consumed=%.1fMB prefetch=%.1fMB flags=[%s]",
              static_cast<unsigned long long>(sample.seq), sample.uptime_s,
              static_cast<unsigned long long>(sample.iterations),
              static_cast<unsigned long long>(sample.d_iterations), sample.gap_frac,
              sample.cache_hit_ratio(),
              static_cast<double>(sample.bytes_consumed) / 1e6,
              static_cast<double>(sample.prefetch_bytes) / 1e6,
              flags.empty() ? " none" : flags.c_str());
  }
  if (!out_open_ && config_.recorder == nullptr) return;

  std::string line;
  line.reserve(512);
  line += '{';
  analysis::append_json_quoted(line, "schema");
  line += ':';
  analysis::append_json_quoted(line, "lobster.heartbeat.v1");
  line += ',';
  append_kv(line, "seq", sample.seq); line += ',';
  append_kv(line, "uptime_s", sample.uptime_s); line += ',';
  append_kv(line, "iterations", sample.iterations); line += ',';
  append_kv(line, "d_iterations", sample.d_iterations); line += ',';
  append_kv(line, "imbalanced_iterations", sample.imbalanced_iterations); line += ',';
  append_kv(line, "gap_frac", sample.gap_frac); line += ',';
  append_kv(line, "cache_hits", sample.cache_hits); line += ',';
  append_kv(line, "cache_misses", sample.cache_misses); line += ',';
  append_kv(line, "cache_hit_ratio", sample.cache_hit_ratio()); line += ',';
  append_kv(line, "bytes_consumed", sample.bytes_consumed); line += ',';
  append_kv(line, "prefetch_bytes", sample.prefetch_bytes); line += ',';
  append_kv(line, "trace_emitted", sample.trace_emitted); line += ',';
  append_kv(line, "trace_dropped", sample.trace_dropped); line += ',';
  append_kv(line, "peer_down_events", sample.peer_down_events); line += ',';
  append_kv(line, "retries", sample.retries); line += ',';
  append_kv(line, "iteration_stalls", sample.iteration_stalls); line += ',';
  append_kv(line, "corrupt_replies", sample.corrupt_replies); line += ',';
  append_kv(line, "job_starvations", sample.job_starvations); line += ',';
  append_kv(line, "job_preemptions", sample.job_preemptions); line += ',';
  append_kv(line, "slow_node_events", sample.slow_node_events); line += ',';
  append_kv(line, "jobs_running", sample.jobs_running); line += ',';
  append_kv(line, "jobs_queued", sample.jobs_queued); line += ',';
  analysis::append_json_quoted(line, "flags");
  line += ":{";
  append_kv(line, "straggler_gap", sample.straggler_gap); line += ',';
  append_kv(line, "prefetch_outrun", sample.prefetch_outrun); line += ',';
  append_kv(line, "trace_ring_overflow", sample.trace_ring_overflow); line += ',';
  append_kv(line, "peer_down", sample.peer_down); line += ',';
  append_kv(line, "retry_storm", sample.retry_storm); line += ',';
  append_kv(line, "iteration_stalled", sample.iteration_stalled); line += ',';
  append_kv(line, "corruption_detected", sample.corruption_detected); line += ',';
  append_kv(line, "job_starved", sample.job_starved); line += ',';
  append_kv(line, "slow_node_detected", sample.slow_node_detected); line += ',';
  append_kv(line, "job_preempt_storm", sample.job_preempt_storm);
  line += "}}";
  if (config_.recorder != nullptr) config_.recorder->record_heartbeat(line);
  if (out_open_) {
    line += '\n';
    out_ << line;
  }
}

}  // namespace lobster::telemetry
