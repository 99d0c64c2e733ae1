#include "util/jsonio.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace linesearch {

std::string json_escape(const std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buffer;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;  // value belongs on the key's line
  }
  if (!first_) *out_ << ',';
  if (!compact_ && depth_ > 0) {
    *out_ << '\n' << std::string(static_cast<std::size_t>(depth_) * 2, ' ');
  }
  first_ = false;
}

void JsonWriter::open(const char bracket) {
  separate();
  *out_ << bracket;
  ++depth_;
  first_ = true;
}

void JsonWriter::close(const char bracket) {
  --depth_;
  if (!compact_ && !first_) {
    *out_ << '\n' << std::string(static_cast<std::size_t>(depth_) * 2, ' ');
  }
  *out_ << bracket;
  first_ = false;
  if (!compact_ && depth_ == 0) *out_ << '\n';
}

JsonWriter& JsonWriter::begin_object() { open('{'); return *this; }
JsonWriter& JsonWriter::end_object() { close('}'); return *this; }
JsonWriter& JsonWriter::begin_array() { open('['); return *this; }
JsonWriter& JsonWriter::end_array() { close(']'); return *this; }

JsonWriter& JsonWriter::key(const std::string& name) {
  separate();
  *out_ << '"' << json_escape(name) << (compact_ ? "\":" : "\": ");
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& text) {
  separate();
  *out_ << '"' << json_escape(text) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string(text));
}

std::string json_real(const Real number) {
  // Non-finite values have no JSON literal; the shared codec spelling
  // goes out as a string so consumers see "inf" rather than invalid JSON.
  if (std::isnan(number) || std::isinf(number)) {
    return '"' + encode_real_field(number) + '"';
  }
  return encode_real_field(number);
}

JsonWriter& JsonWriter::value(const Real number) {
  separate();
  *out_ << json_real(number);
  return *this;
}

JsonWriter& JsonWriter::value(const int number) {
  separate();
  *out_ << number;
  return *this;
}

JsonWriter& JsonWriter::value(const long long number) {
  separate();
  *out_ << number;
  return *this;
}

JsonWriter& JsonWriter::value(const std::size_t number) {
  separate();
  *out_ << number;
  return *this;
}

JsonWriter& JsonWriter::value(const bool flag) {
  separate();
  *out_ << (flag ? "true" : "false");
  return *this;
}

bool JsonValue::as_bool() const {
  expects(kind_ == Kind::kBool, "json: value is not a bool");
  return bool_;
}

Real JsonValue::as_real() const {
  // A string payload is legal here iff it parses under the shared codec:
  // that is how JsonWriter spells inf/-inf/nan, the values JSON itself
  // cannot carry as numbers.
  expects(kind_ == Kind::kNumber || kind_ == Kind::kString,
          "json: value is not a number (or codec string)");
  return parse_real_field(text_);
}

long long JsonValue::as_int() const {
  expects(kind_ == Kind::kNumber, "json: value is not a number");
  const char* begin = text_.c_str();
  char* end = nullptr;
  const long long parsed = std::strtoll(begin, &end, 10);
  expects(end != nullptr && *end == '\0',
          [&] { return "json: number is not an integer: " + text_; });
  return parsed;
}

std::uint64_t JsonValue::as_uint64() const {
  expects(kind_ == Kind::kNumber, "json: value is not a number");
  expects(!text_.empty() && text_.front() != '-',
          [&] { return "json: number is negative: " + text_; });
  const char* begin = text_.c_str();
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(begin, &end, 10);
  expects(end != nullptr && *end == '\0',
          [&] { return "json: number is not an unsigned integer: " + text_; });
  return static_cast<std::uint64_t>(parsed);
}

const std::string& JsonValue::as_string() const {
  expects(kind_ == Kind::kString, "json: value is not a string");
  return text_;
}

const JsonValue::Array& JsonValue::as_array() const {
  expects(kind_ == Kind::kArray, "json: value is not an array");
  return *array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  expects(kind_ == Kind::kObject, "json: value is not an object");
  return *object_;
}

const JsonValue* JsonValue::find(const std::string_view name) const {
  expects(kind_ == Kind::kObject, "json: value is not an object");
  for (const auto& [key, member] : *object_) {
    if (key == name) return &member;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string_view name) const {
  const JsonValue* found = find(name);
  expects(found != nullptr, [name] {
    return "json: missing key \"" + std::string(name) + "\"";
  });
  return *found;
}

/// Recursive-descent parser over the whole input string.  Private API:
/// only parse_json constructs one.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(&text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    expects(pos_ == text_->size(),
            [this] { return "json: trailing garbage at offset " + offset(); });
    return value;
  }

 private:
  [[nodiscard]] std::string offset() const { return std::to_string(pos_); }

  void skip_whitespace() {
    while (pos_ < text_->size()) {
      const char ch = (*text_)[pos_];
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    expects(pos_ < text_->size(), "json: unexpected end of input");
    return (*text_)[pos_];
  }

  void consume(const char expected) {
    // The reported offset is where the search began, before the
    // whitespace peek() skips.
    const std::size_t start = pos_;
    expects(peek() == expected, [expected, start] {
      return std::string("json: expected '") + expected + "' at offset " +
             std::to_string(start);
    });
    ++pos_;
  }

  bool try_consume(const char expected) {
    if (peek() != expected) return false;
    ++pos_;
    return true;
  }

  void consume_literal(const std::string_view literal) {
    expects(text_->compare(pos_, literal.size(), literal) == 0,
            [this] { return "json: bad literal at offset " + offset(); });
    pos_ += literal.size();
  }

  JsonValue parse_value(const std::size_t depth) {
    expects(depth < kMaxJsonDepth, "json: nesting deeper than kMaxJsonDepth");
    const char head = peek();
    switch (head) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        JsonValue value;
        value.kind_ = JsonValue::Kind::kString;
        value.text_ = parse_string();
        return value;
      }
      case 't': {
        consume_literal("true");
        JsonValue value;
        value.kind_ = JsonValue::Kind::kBool;
        value.bool_ = true;
        return value;
      }
      case 'f': {
        consume_literal("false");
        JsonValue value;
        value.kind_ = JsonValue::Kind::kBool;
        return value;
      }
      case 'n': {
        consume_literal("null");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object(const std::size_t depth) {
    consume('{');
    JsonValue value;
    value.kind_ = JsonValue::Kind::kObject;
    value.object_ = std::make_shared<JsonValue::Object>();
    if (try_consume('}')) return value;
    while (true) {
      std::string key = parse_string();
      consume(':');
      value.object_->emplace_back(std::move(key), parse_value(depth + 1));
      if (try_consume('}')) return value;
      consume(',');
    }
  }

  JsonValue parse_array(const std::size_t depth) {
    consume('[');
    JsonValue value;
    value.kind_ = JsonValue::Kind::kArray;
    value.array_ = std::make_shared<JsonValue::Array>();
    if (try_consume(']')) return value;
    while (true) {
      value.array_->push_back(parse_value(depth + 1));
      if (try_consume(']')) return value;
      consume(',');
    }
  }

  std::string parse_string() {
    consume('"');
    std::string out;
    while (true) {
      expects(pos_ < text_->size(), "json: unterminated string");
      const char ch = (*text_)[pos_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        expects(static_cast<unsigned char>(ch) >= 0x20, [this] {
          return "json: raw control character in string at offset " +
                 offset();
        });
        out += ch;
        continue;
      }
      expects(pos_ < text_->size(), "json: unterminated escape");
      const char escape = (*text_)[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default:
          expects(false,
                  [this] { return "json: bad escape at offset " + offset(); });
      }
    }
  }

  std::string parse_unicode_escape() {
    expects(pos_ + 4 <= text_->size(), "json: truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char ch = (*text_)[pos_++];
      code <<= 4u;
      if (ch >= '0' && ch <= '9') {
        code |= static_cast<unsigned>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        code |= static_cast<unsigned>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        code |= static_cast<unsigned>(ch - 'A' + 10);
      } else {
        expects(false, [this] {
          return "json: bad \\u digit at offset " + offset();
        });
      }
    }
    // UTF-8 encode.  The writer only emits \u00xx control escapes, but
    // arbitrary BMP code points from external clients decode correctly
    // (surrogate pairs are rejected rather than silently mangled).
    expects(code < 0xD800 || code > 0xDFFF, [this] {
      return "json: surrogate escapes unsupported at offset " + offset();
    });
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0u | (code >> 6u));
      out += static_cast<char>(0x80u | (code & 0x3Fu));
    } else {
      out += static_cast<char>(0xE0u | (code >> 12u));
      out += static_cast<char>(0x80u | ((code >> 6u) & 0x3Fu));
      out += static_cast<char>(0x80u | (code & 0x3Fu));
    }
    return out;
  }

  JsonValue parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_->size() && (*text_)[pos_] == '-') ++pos_;
    const auto eat_digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_->size() &&
             std::isdigit(static_cast<unsigned char>((*text_)[pos_])) != 0) {
        ++pos_;
      }
      expects(pos_ > before,
              [this] { return "json: expected digit at offset " + offset(); });
    };
    eat_digits();
    if (pos_ < text_->size() && (*text_)[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_->size() &&
        ((*text_)[pos_] == 'e' || (*text_)[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_->size() &&
          ((*text_)[pos_] == '+' || (*text_)[pos_] == '-')) {
        ++pos_;
      }
      eat_digits();
    }
    JsonValue value;
    value.kind_ = JsonValue::Kind::kNumber;
    value.text_ = text_->substr(start, pos_ - start);
    return value;
  }

  const std::string* text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace linesearch
