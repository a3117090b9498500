#include "telemetry/analysis/json.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "common/strfmt.hpp"

namespace lobster::telemetry::analysis {

namespace {

/// Deepest array/object nesting accepted. Far above anything the exporters
/// write; the bound keeps hostile input from exhausting the stack, since
/// each level of nesting is one level of recursion.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(strf("json: %s at byte %zu", what, pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_nested(&Parser::parse_object);
      case '[': return parse_nested(&Parser::parse_array);
      case '"': return parse_string();
      case 't': case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  JsonValue parse_nested(JsonValue (Parser::*parse_level)()) {
    if (depth_ == kMaxDepth) fail("nesting too deep");
    ++depth_;
    JsonValue value = (this->*parse_level)();
    --depth_;
    return value;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    if (peek() == '}') { ++pos_; return value; }
    for (;;) {
      JsonValue key = parse_string();
      expect(':');
      value.object.insert_or_assign(std::move(key.string), parse_value());
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    if (peek() == ']') { ++pos_; return value; }
    for (;;) {
      value.array.push_back(parse_value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return value;
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // ASCII round-trips exactly (all the exporter escapes); anything
            // wider degrades to '?' — names never carry non-ASCII here.
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: c = esc; break;
        }
      }
      value.string.push_back(c);
    }
    expect('"');
    return value;
  }

  JsonValue parse_bool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) { value.boolean = true; pos_ += 4; return value; }
    if (text_.compare(pos_, 5, "false") == 0) { pos_ += 5; return value; }
    fail("bad literal");
  }

  JsonValue parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return {};
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-' || c == '+' ||
          c == '.' || c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("bad number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = parsed;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

void append_json_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace lobster::telemetry::analysis
