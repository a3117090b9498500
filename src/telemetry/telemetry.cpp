#include "telemetry/telemetry.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace lobster::telemetry {

thread_local TraceBuffer* Tracer::tls_buffer_ = nullptr;
thread_local Tracer::SpanRing* Tracer::tls_spans_ = nullptr;
thread_local std::uint32_t Tracer::tls_track_ = 0;
thread_local Tracer::VirtualContext Tracer::tls_virtual_{};

namespace {
/// Default per-thread ring: 16Ki records (768KiB of events, 1MiB of spans
/// once the thread opens one). Benches can raise it (bench_common's
/// trace_buffer=<n>) for long timelines.
constexpr std::size_t kDefaultBufferCapacity = std::size_t{1} << 14;
}  // namespace

Tracer::Tracer() : buffer_capacity_(kDefaultBufferCapacity), epoch_(WallClock::now()) {
  // Name id 0 / track id 0 are reserved so "unset" never aliases a real name.
  names_.emplace_back("<none>");
  name_ids_.emplace("<none>", 0);
  tracks_.emplace_back("<none>");
}

Tracer& Tracer::instance() {
  static Tracer tracer;  // leaked-on-exit singleton semantics via static storage
  return tracer;
}

std::uint32_t Tracer::intern(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

std::uint32_t Tracer::new_track(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.emplace_back(name);
  return id;
}

void Tracer::set_buffer_capacity(std::size_t records) noexcept {
  buffer_capacity_.store(records < 8 ? 8 : records, std::memory_order_relaxed);
}

std::uint64_t Tracer::wall_now_us() const noexcept {
  const auto elapsed = WallClock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

TraceBuffer& Tracer::thread_buffer() {
  TraceBuffer* buffer = tls_buffer_;
  if (buffer != nullptr) return *buffer;
  // First event from this thread: allocate its ring and a named track.
  // Buffers are owned by the tracer and never freed, so events emitted by
  // pool workers survive the workers themselves. The ring is built outside
  // the lock, so threads starting together do not queue behind each
  // other's allocation.
  auto owned = std::make_unique<TraceBuffer>(buffer_capacity_.load(std::memory_order_relaxed));
  buffer = owned.get();
  std::uint32_t track = 0;
  {
    const std::scoped_lock lock(mutex_);
    track = static_cast<std::uint32_t>(tracks_.size());
    tracks_.push_back("thread-" + std::to_string(buffers_.size()));
    buffers_.push_back(std::move(owned));
  }
  tls_buffer_ = buffer;
  tls_track_ = track;
  return *buffer;
}

void Tracer::instant_wall(Category category, std::uint32_t name, std::uint64_t arg) noexcept {
  TraceEvent event;
  event.ts_us = wall_now_us();
  event.arg = arg;
  event.name_id = name;
  event.category = category;
  event.phase = Phase::kInstant;
  event.domain = Domain::kWall;
  thread_buffer();  // ensure registration so tls_track_ is set
  event.track = tls_track_;
  emit(event);
}

void Tracer::complete_wall(Category category, std::uint32_t name, std::uint64_t begin_us,
                           std::uint64_t end_us, std::uint64_t arg) noexcept {
  TraceEvent event;
  event.ts_us = begin_us;
  event.dur_us = end_us > begin_us ? end_us - begin_us : 0;
  event.arg = arg;
  event.name_id = name;
  event.category = category;
  event.phase = Phase::kComplete;
  event.domain = Domain::kWall;
  thread_buffer();
  event.track = tls_track_;
  emit(event);
}

void Tracer::counter_wall(Category category, std::uint32_t name, double value) noexcept {
  TraceEvent event;
  event.ts_us = wall_now_us();
  event.value = value;
  event.name_id = name;
  event.category = category;
  event.phase = Phase::kCounter;
  event.domain = Domain::kWall;
  thread_buffer();
  event.track = tls_track_;
  emit(event);
}

void Tracer::instant_at(Category category, std::uint32_t name, std::uint32_t track, Seconds at,
                        std::uint64_t arg) noexcept {
  TraceEvent event;
  event.ts_us = to_micros(at);
  event.arg = arg;
  event.name_id = name;
  event.track = track;
  event.category = category;
  event.phase = Phase::kInstant;
  event.domain = Domain::kVirtual;
  emit(event);
}

void Tracer::complete_at(Category category, std::uint32_t name, std::uint32_t track,
                         Seconds begin, Seconds end, std::uint64_t arg) noexcept {
  TraceEvent event;
  event.ts_us = to_micros(begin);
  const std::uint64_t end_us = to_micros(end);
  event.dur_us = end_us > event.ts_us ? end_us - event.ts_us : 0;
  event.arg = arg;
  event.name_id = name;
  event.track = track;
  event.category = category;
  event.phase = Phase::kComplete;
  event.domain = Domain::kVirtual;
  emit(event);
}

void Tracer::counter_at(Category category, std::uint32_t name, std::uint32_t track, Seconds at,
                        double value) noexcept {
  TraceEvent event;
  event.ts_us = to_micros(at);
  event.value = value;
  event.name_id = name;
  event.track = track;
  event.category = category;
  event.phase = Phase::kCounter;
  event.domain = Domain::kVirtual;
  emit(event);
}

void Tracer::instant_auto(Category category, std::uint32_t name, std::uint64_t arg) noexcept {
  const VirtualContext& ctx = tls_virtual_;
  if (ctx.active) {
    TraceEvent event;
    event.ts_us = ctx.ts_us;
    event.arg = arg;
    event.name_id = name;
    event.track = ctx.track;
    event.category = category;
    event.phase = Phase::kInstant;
    event.domain = Domain::kVirtual;
    emit(event);
  } else {
    instant_wall(category, name, arg);
  }
}

void Tracer::counter_auto(Category category, std::uint32_t name, double value) noexcept {
  const VirtualContext& ctx = tls_virtual_;
  if (ctx.active) {
    TraceEvent event;
    event.ts_us = ctx.ts_us;
    event.value = value;
    event.name_id = name;
    event.track = ctx.track;
    event.category = category;
    event.phase = Phase::kCounter;
    event.domain = Domain::kVirtual;
    emit(event);
  } else {
    counter_wall(category, name, value);
  }
}

void Tracer::record_span(const SpanRecord& span) noexcept {
  SpanRing* spans = tls_spans_;
  if (spans == nullptr) {
    // First span from this thread: its ring lives as long as the tracer,
    // like the event ring, so spans of finished workers stay readable.
    auto owned = std::make_unique<SpanRing>(buffer_capacity_.load(std::memory_order_relaxed));
    spans = owned.get();
    tls_spans_ = spans;
    const std::scoped_lock lock(mutex_);
    span_rings_.push_back(std::move(owned));
  }
  const std::scoped_lock lock(spans->mutex);
  spans->ring.emit(span);
}

std::uint64_t Tracer::next_id() noexcept {
  // splitmix64 over a shared counter: each fetch_add claims a distinct
  // state, so concurrent callers get distinct (and well-mixed) ids.
  std::uint64_t state =
      id_state_.fetch_add(0x9E3779B97F4A7C15ULL, std::memory_order_relaxed);
  const std::uint64_t id = splitmix64(state);
  return id != 0 ? id : 1;
}

SpanSnapshot Tracer::span_snapshot() const {
  SpanSnapshot snap;
  {
    const std::scoped_lock lock(mutex_);
    for (const auto& spans : span_rings_) {
      const std::scoped_lock ring_lock(spans->mutex);
      spans->ring.snapshot(snap.records);
      snap.dropped += spans->ring.dropped();
    }
  }
  // Each ring is already in end order; a stable sort merges them and keeps
  // one thread's same-microsecond spans in the order they closed.
  std::stable_sort(snap.records.begin(), snap.records.end(),
                   [](const SpanRecord& a, const SpanRecord& b) { return a.end_us < b.end_us; });
  return snap;
}

TraceSnapshot Tracer::snapshot() const {
  TraceSnapshot snap;
  {
    const std::scoped_lock lock(mutex_);
    for (const auto& buffer : buffers_) {
      buffer->snapshot(snap.events);
      snap.dropped += buffer->dropped();
      snap.emitted += buffer->emitted();
    }
    snap.names = names_;
    snap.tracks = tracks_;
    snap.buffers = static_cast<std::uint32_t>(buffers_.size());
  }
  snap.spans = span_snapshot();
  return snap;
}

std::uint64_t Tracer::dropped_events() const noexcept {
  const std::scoped_lock lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) dropped += buffer->dropped();
  return dropped;
}

std::uint64_t Tracer::emitted_events() const noexcept {
  const std::scoped_lock lock(mutex_);
  std::uint64_t emitted = 0;
  for (const auto& buffer : buffers_) emitted += buffer->emitted();
  return emitted;
}

void Tracer::reset() noexcept {
  const std::scoped_lock lock(mutex_);
  for (const auto& buffer : buffers_) buffer->clear();
  for (const auto& spans : span_rings_) {
    const std::scoped_lock ring_lock(spans->mutex);
    spans->ring.clear();
  }
}

}  // namespace lobster::telemetry
