// Typed operation status for the fault-tolerant remote tier.
//
// The online runtime's remote paths used to report failure as `bool` or
// `std::nullopt`, which cannot distinguish "the peer answered: not here"
// from "the peer never answered" from "we are shutting down" — and the
// degraded-routing logic (DESIGN.md §9) branches on exactly that
// distinction. `Status` carries a machine-checkable cause plus an optional
// human detail string; `Result<T>` couples it with a value so callers write
//
//   auto results = manager.fetch_remote_many(holder, samples, iter);
//   if (!results[i].ok()) {
//     if (results[i].status().code() == StatusCode::kPeerDown) ...reroute...
//   }
//
// Conventions:
//  - A default-constructed Status is success; factories exist only for the
//    failure causes, so `return Status{};` / `return payload;` is the happy
//    path and every error names its cause.
//  - `Result<T>` is [[nodiscard]]: dropping a fetch result on the floor is
//    always a bug. Plain Status returns may be discarded (e.g. best-effort
//    telemetry sends).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace lobster {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kTimeout,   ///< deadline expired before the operation completed
  kPeerDown,  ///< remote endpoint is believed dead (killed / circuit open)
  kShutdown,  ///< subsystem is shutting down; retrying is pointless
  kOverflow,  ///< a bounded resource (queue, store capacity) rejected the op
  kNotFound,  ///< authoritative miss: the peer/store answered "don't have it"
  kCorrupt,   ///< a payload arrived but failed integrity verification
  kInvalid,   ///< caller-supplied configuration/argument failed validation
};

constexpr const char* status_code_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kPeerDown: return "peer_down";
    case StatusCode::kShutdown: return "shutdown";
    case StatusCode::kOverflow: return "overflow";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kCorrupt: return "corrupt";
    case StatusCode::kInvalid: return "invalid";
  }
  return "unknown";
}

class Status {
 public:
  /// Success. The only way to build an ok Status — failure states go
  /// through the named factories below.
  Status() = default;

  static Status timeout(std::string detail = {}) {
    return Status(StatusCode::kTimeout, std::move(detail));
  }
  static Status peer_down(std::string detail = {}) {
    return Status(StatusCode::kPeerDown, std::move(detail));
  }
  static Status shutdown(std::string detail = {}) {
    return Status(StatusCode::kShutdown, std::move(detail));
  }
  static Status overflow(std::string detail = {}) {
    return Status(StatusCode::kOverflow, std::move(detail));
  }
  static Status not_found(std::string detail = {}) {
    return Status(StatusCode::kNotFound, std::move(detail));
  }
  static Status corrupt(std::string detail = {}) {
    return Status(StatusCode::kCorrupt, std::move(detail));
  }
  static Status invalid(std::string detail = {}) {
    return Status(StatusCode::kInvalid, std::move(detail));
  }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  explicit operator bool() const noexcept { return ok(); }

  StatusCode code() const noexcept { return code_; }
  const std::string& detail() const noexcept { return detail_; }
  const char* code_name() const noexcept { return status_code_name(code_); }

  /// "timeout: recv deadline expired" / "ok".
  std::string to_string() const {
    if (detail_.empty()) return code_name();
    return std::string(code_name()) + ": " + detail_;
  }

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;  // detail is advisory, not identity
  }

 private:
  Status(StatusCode code, std::string detail) : code_(code), detail_(std::move(detail)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string detail_;
};

/// A value or a typed failure cause. Mirrors std::optional's access surface
/// (has_value / operator* / operator->) so migrated call sites keep their
/// shape, and adds `status()` for branching on the cause.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Success. Implicit so `return payload;` works.
  Result(T value) : value_(std::move(value)) {}

  /// Failure. Implicit so `return Status::timeout(...);` works. Passing an
  /// ok Status without a value is a logic error, caught loudly.
  Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) throw std::logic_error("Result: ok status requires a value");
  }

  bool ok() const noexcept { return value_.has_value(); }
  bool has_value() const noexcept { return ok(); }
  explicit operator bool() const noexcept { return ok(); }

  /// kOk when a value is present.
  const Status& status() const noexcept { return status_; }

  const T& value() const& { return checked(); }
  T& value() & { return checked(); }
  /// Moves the value out (for single-consumer call sites).
  T&& take() { return std::move(checked()); }

  const T& operator*() const& { return checked(); }
  T& operator*() & { return checked(); }
  const T* operator->() const { return &checked(); }
  T* operator->() { return &checked(); }

  template <typename U>
  T value_or(U&& fallback) const& {
    return ok() ? *value_ : static_cast<T>(std::forward<U>(fallback));
  }

 private:
  const T& checked() const {
    if (!ok()) throw std::logic_error("Result: access without value (" + status_.to_string() + ")");
    return *value_;
  }
  T& checked() {
    if (!ok()) throw std::logic_error("Result: access without value (" + status_.to_string() + ")");
    return *value_;
  }

  std::optional<T> value_;
  Status status_;  // kOk iff value_ holds
};

}  // namespace lobster
