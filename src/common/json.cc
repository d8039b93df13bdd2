#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace qy {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : AsObject()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Set(std::string key, JsonValue value) {
  if (!is_object()) data_ = Object{};
  std::get<Object>(data_).emplace_back(std::move(key), std::move(value));
}

namespace {

void EscapeString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double d, std::string* out) {
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    *out += buf;
  } else {
    char buf[40];
    snprintf(buf, sizeof(buf), "%.*g",
             std::numeric_limits<double>::max_digits10, d);
    *out += buf;
  }
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent >= 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent) * d, ' ');
    }
  };
  if (is_null()) {
    *out += "null";
  } else if (is_bool()) {
    *out += AsBool() ? "true" : "false";
  } else if (is_number()) {
    AppendNumber(AsDouble(), out);
  } else if (is_string()) {
    EscapeString(AsString(), out);
  } else if (is_array()) {
    const Array& arr = AsArray();
    out->push_back('[');
    for (size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) out->push_back(',');
      newline(depth + 1);
      arr[i].DumpTo(out, indent, depth + 1);
    }
    if (!arr.empty()) newline(depth);
    out->push_back(']');
  } else {
    const Object& obj = AsObject();
    out->push_back('{');
    for (size_t i = 0; i < obj.size(); ++i) {
      if (i > 0) out->push_back(',');
      newline(depth + 1);
      EscapeString(obj[i].first, out);
      *out += indent >= 0 ? ": " : ":";
      obj[i].second.DumpTo(out, indent, depth + 1);
    }
    if (!obj.empty()) newline(depth);
    out->push_back('}');
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser with explicit position for error messages.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    QY_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("JSON error at offset " + std::to_string(pos_) +
                              ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        QY_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          return JsonValue(true);
        }
        return Error("invalid literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          return JsonValue(false);
        }
        return Error("invalid literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          return JsonValue(nullptr);
        }
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  /// One array/object level for as long as it lives.
  class Nest {
   public:
    explicit Nest(int* depth) : depth_(depth) { ++*depth_; }
    ~Nest() { --*depth_; }
    bool too_deep() const { return *depth_ > kMaxJsonDepth; }

   private:
    int* depth_;
  };

  Status TooDeep() const {
    return Error("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                 " levels");
  }

  Result<JsonValue> ParseObject() {
    Nest nest(&depth_);
    if (nest.too_deep()) return TooDeep();
    ++pos_;  // '{'
    JsonValue::Object obj;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(obj));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      QY_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      QY_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      obj.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue(std::move(obj));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    Nest nest(&depth_);
    if (nest.too_deep()) return TooDeep();
    ++pos_;  // '['
    JsonValue::Array arr;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(arr));
    while (true) {
      SkipWhitespace();
      QY_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      arr.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue(std::move(arr));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += h - '0';
            else if (h >= 'a' && h <= 'f') code += h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code += h - 'A' + 10;
            else return Error("invalid \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs unsupported by design).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("invalid number");
    char* end = nullptr;
    std::string token = text_.substr(start, pos_ - start);
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("invalid number: " + token);
    return JsonValue(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace qy
