#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <iterator>

#include "common/rng.hpp"

namespace lobster::telemetry {

thread_local TraceBuffer* Tracer::tls_buffer_ = nullptr;
thread_local std::uint32_t Tracer::tls_track_ = 0;
thread_local bool Tracer::tls_released_ = false;
thread_local Tracer::VirtualContext Tracer::tls_virtual_{};

namespace {
/// Default per-thread ring: 16Ki records (1.25MiB once full). Benches can
/// raise it (bench_common's trace_buffer=<n>) for long timelines.
constexpr std::size_t kDefaultBufferCapacity = std::size_t{1} << 14;

/// A `phase` record of interned `name` beginning at `ts_us`.
TraceEvent make_event(Category category, std::uint32_t name, Phase phase, std::uint64_t ts_us,
                      std::uint64_t arg = 0, double value = 0.0) noexcept {
  TraceEvent event;
  event.ts_us = ts_us;
  event.value = value;
  event.arg = arg;
  event.name_id = name;
  event.category = category;
  event.phase = phase;
  return event;
}
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

TraceBuffer& Tracer::adopt_buffer() {
  const std::size_t capacity =
      TraceBuffer::round_up_capacity(buffer_capacity_.load(std::memory_order_relaxed));
  TraceBuffer* buffer = nullptr;
  std::uint32_t track = 0;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = std::find_if(free_rings_.begin(), free_rings_.end(), [&](const FreeRing& r) {
      return r.buffer->capacity() == capacity;
    });
    if (it != free_rings_.end()) {
      buffer = it->buffer;
      track = it->track;
      free_rings_.erase(it);
    }
  }
  if (buffer == nullptr) {
    // Built outside the lock, so threads starting together do not queue
    // behind each other's allocation. The tracer owns every ring.
    auto owned = std::make_unique<TraceBuffer>(capacity);
    buffer = owned.get();
    const std::scoped_lock lock(mutex_);
    track = static_cast<std::uint32_t>(tracks_.size());
    tracks_.push_back("thread-" + std::to_string(buffers_.size()));
    buffers_.push_back(std::move(owned));
  }
  tls_buffer_ = buffer;
  tls_track_ = track;
  // The exit hook, registered on the thread's first record. A record made
  // after it ran (from a later thread-local destructor) lands here again;
  // that ring then stays with the exiting thread, as no hook can be
  // registered during thread exit.
  struct ReleaseAtExit {
    ~ReleaseAtExit() { Tracer::instance().release_buffer(); }
  };
  if (!tls_released_) {
    static thread_local const ReleaseAtExit release_at_exit;  // built once per thread
  }
  return *buffer;
}

void Tracer::release_buffer() noexcept {
  tls_released_ = true;
  const std::scoped_lock lock(mutex_);
  free_rings_.push_back({tls_buffer_, tls_track_});
  tls_buffer_ = nullptr;
}

void Tracer::instant_wall(Category category, std::uint32_t name, std::uint64_t arg) noexcept {
  emit_wall(make_event(category, name, Phase::kInstant, wall_now_us(), arg));
}

void Tracer::complete_wall(Category category, std::uint32_t name, std::uint64_t begin_us,
                           std::uint64_t end_us, std::uint64_t arg) noexcept {
  TraceEvent event = make_event(category, name, Phase::kComplete, begin_us, arg);
  event.dur_us = end_us > begin_us ? end_us - begin_us : 0;
  emit_wall(event);
}

void Tracer::counter_wall(Category category, std::uint32_t name, double value) noexcept {
  emit_wall(make_event(category, name, Phase::kCounter, wall_now_us(), 0, value));
}

void Tracer::instant_at(Category category, std::uint32_t name, std::uint32_t track, Seconds at,
                        std::uint64_t arg) noexcept {
  emit_virtual(make_event(category, name, Phase::kInstant, to_micros(at), arg), track);
}

void Tracer::complete_at(Category category, std::uint32_t name, std::uint32_t track,
                         Seconds begin, Seconds end, std::uint64_t arg) noexcept {
  TraceEvent event = make_event(category, name, Phase::kComplete, to_micros(begin), arg);
  const std::uint64_t end_us = to_micros(end);
  event.dur_us = end_us > event.ts_us ? end_us - event.ts_us : 0;
  emit_virtual(event, track);
}

void Tracer::counter_at(Category category, std::uint32_t name, std::uint32_t track, Seconds at,
                        double value) noexcept {
  emit_virtual(make_event(category, name, Phase::kCounter, to_micros(at), 0, value), track);
}

void Tracer::instant_auto(Category category, std::uint32_t name, std::uint64_t arg) noexcept {
  const VirtualContext& ctx = tls_virtual_;
  if (!ctx.active) return instant_wall(category, name, arg);
  emit_virtual(make_event(category, name, Phase::kInstant, ctx.ts_us, arg), ctx.track);
}

void Tracer::counter_auto(Category category, std::uint32_t name, double value) noexcept {
  const VirtualContext& ctx = tls_virtual_;
  if (!ctx.active) return counter_wall(category, name, value);
  emit_virtual(make_event(category, name, Phase::kCounter, ctx.ts_us, 0, value), ctx.track);
}

void Tracer::emit_wall(TraceEvent record) noexcept {
  TraceBuffer& buffer = thread_buffer();  // adopting a ring sets tls_track_
  record.track = tls_track_;
  record.domain = Domain::kWall;
  buffer.emit(record);
}

void Tracer::emit_virtual(TraceEvent record, std::uint32_t track) noexcept {
  record.track = track;
  record.domain = Domain::kVirtual;
  thread_buffer().emit(record);
}

std::uint64_t Tracer::next_id() noexcept {
  // splitmix64 over a shared counter: each fetch_add claims a distinct
  // state, so concurrent callers get distinct (and well-mixed) ids.
  std::uint64_t state =
      id_state_.fetch_add(0x9E3779B97F4A7C15ULL, std::memory_order_relaxed);
  const std::uint64_t id = splitmix64(state);
  return id != 0 ? id : 1;
}

TraceSnapshot Tracer::snapshot() const {
  TraceSnapshot snap;
  {
    const std::scoped_lock lock(mutex_);
    for (const auto& buffer : buffers_) {
      const std::size_t before = snap.events.size();
      const std::uint64_t emitted = buffer->snapshot(snap.events);
      snap.emitted += emitted;
      snap.dropped += emitted - (snap.events.size() - before);
    }
    snap.names = names_;
    snap.tracks = tracks_;
    snap.buffers = static_cast<std::uint32_t>(buffers_.size());
  }
  // Move the spans out in place, keeping both kinds in ring order.
  const auto is_span = [](const TraceEvent& record) { return record.trace_id != 0; };
  std::copy_if(snap.events.begin(), snap.events.end(), std::back_inserter(snap.spans), is_span);
  snap.events.erase(std::remove_if(snap.events.begin(), snap.events.end(), is_span),
                    snap.events.end());
  // Each ring holds its spans in end order; a stable sort merges the rings
  // and keeps one thread's same-microsecond spans in the order they closed.
  std::stable_sort(snap.spans.begin(), snap.spans.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.end_us() < b.end_us(); });
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
}

}  // namespace lobster::telemetry
