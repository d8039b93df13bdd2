/// \file json.h
/// Minimal JSON document model, parser and writer.
///
/// Qymera's Circuit Layer accepts circuit uploads "in standardized formats,
/// such as JSON" (Sec. 3.1). This is a small, dependency-free JSON
/// implementation sufficient for circuit serialization and bench output.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace qy {

/// A JSON value: null, bool, number (double), string, array or object.
/// Objects preserve insertion order for stable serialization.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Ordered object representation.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : data_(nullptr) {}
  JsonValue(std::nullptr_t) : data_(nullptr) {}           // NOLINT
  JsonValue(bool b) : data_(b) {}                         // NOLINT
  JsonValue(double d) : data_(d) {}                       // NOLINT
  JsonValue(int i) : data_(static_cast<double>(i)) {}     // NOLINT
  JsonValue(int64_t i) : data_(static_cast<double>(i)) {} // NOLINT
  JsonValue(const char* s) : data_(std::string(s)) {}     // NOLINT
  JsonValue(std::string s) : data_(std::move(s)) {}       // NOLINT
  JsonValue(Array a) : data_(std::move(a)) {}             // NOLINT
  JsonValue(Object o) : data_(std::move(o)) {}            // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool AsBool() const { return std::get<bool>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  int64_t AsInt() const { return static_cast<int64_t>(std::get<double>(data_)); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const Array& AsArray() const { return std::get<Array>(data_); }
  Array& AsArray() { return std::get<Array>(data_); }
  const Object& AsObject() const { return std::get<Object>(data_); }
  Object& AsObject() { return std::get<Object>(data_); }

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Append a key/value pair (object) — convenience builder.
  void Set(std::string key, JsonValue value);

  /// Serialize. `indent` < 0 means compact single-line output.
  std::string Dump(int indent = -1) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Deepest array/object nesting ParseJson accepts: bounds the parser's
/// recursion (and the tree's) for any input, e.g. a service frame of
/// 100 000 '['.
inline constexpr int kMaxJsonDepth = 512;

/// Parse a complete JSON document (rejects trailing garbage). Nesting past
/// kMaxJsonDepth fails with ParseError naming the offset.
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace qy
