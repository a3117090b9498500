// Minimal JSON value parser for round-tripping telemetry artifacts.
//
// Just enough of RFC 8259 to read back what this repo writes: the Chrome
// trace exporter's output, the bench `--metrics-json` records and the live
// monitor's heartbeat JSONL lines. Not a general-purpose parser — no
// surrogate-pair decoding (escapes outside the BMP degrade to '?'), and
// numbers are doubles throughout, which is lossless for every quantity the
// exporters emit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lobster::telemetry::analysis {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const noexcept { return type == Type::kObject; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool has(const std::string& key) const { return is_object() && object.contains(key); }
  /// Object member access; throws std::out_of_range when absent.
  const JsonValue& at(const std::string& key) const { return object.at(key); }

  /// Typed getters with fallbacks (for optional fields).
  double number_or(double fallback) const noexcept {
    return type == Type::kNumber ? number : fallback;
  }
  const std::string& string_or(const std::string& fallback) const noexcept {
    return type == Type::kString ? string : fallback;
  }
  double get_number(const std::string& key, double fallback = 0.0) const {
    const auto it = object.find(key);
    return it == object.end() ? fallback : it->second.number_or(fallback);
  }
  std::string get_string(const std::string& key, const std::string& fallback = "") const {
    const auto it = object.find(key);
    return it == object.end() ? fallback : it->second.string_or(fallback);
  }
  bool get_bool(const std::string& key, bool fallback = false) const {
    const auto it = object.find(key);
    return it == object.end() || it->second.type != Type::kBool ? fallback
                                                                : it->second.boolean;
  }
};

/// Parses one JSON document; throws std::runtime_error (with a byte offset)
/// on malformed input, trailing garbage, or arrays and objects nested more
/// than 256 deep.
JsonValue parse_json(std::string_view text);

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
void append_json_quoted(std::string& out, std::string_view s);

}  // namespace lobster::telemetry::analysis
