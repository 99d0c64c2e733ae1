#include "util/jsonio.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

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

namespace {

/// Parse an integer token's text with std::from_chars, which reads
/// exactly the JSON integer spelling (no whitespace, no '+') and reports
/// overflow instead of saturating.
template <typename Int>
Int parse_integer(const std::string_view text, const char* not_integer) {
  Int parsed = 0;
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, parsed);
  expects(end == last && error != std::errc::invalid_argument, [&] {
    return not_integer + std::string(text);
  });
  expects(error != std::errc::result_out_of_range, [text] {
    return "json: integer out of range: " + std::string(text);
  });
  return parsed;
}

}  // namespace

bool JsonToken::as_bool() const {
  expects(kind == JsonKind::kBool, "json: value is not a bool");
  return text == "true";
}

Real JsonToken::as_real() const {
  // A string payload is legal here iff it parses under the shared codec:
  // that is how JsonWriter spells inf/-inf/nan, the values JSON itself
  // cannot carry as numbers.
  expects(kind == JsonKind::kNumber || kind == JsonKind::kString,
          "json: value is not a number (or codec string)");
  return parse_real_field(text);
}

long long JsonToken::as_int() const {
  expects(kind == JsonKind::kNumber, "json: value is not a number");
  return parse_integer<long long>(text, "json: number is not an integer: ");
}

std::uint64_t JsonToken::as_uint64() const {
  expects(kind == JsonKind::kNumber, "json: value is not a number");
  expects(!text.empty() && text.front() != '-', [this] {
    return "json: number is negative: " + std::string(text);
  });
  return parse_integer<std::uint64_t>(
      text, "json: number is not an unsigned integer: ");
}

std::string_view JsonToken::as_string() const {
  expects(kind == JsonKind::kString, "json: value is not a string");
  return text;
}

std::string_view JsonToken::as_array() const {
  expects(kind == JsonKind::kArray, "json: value is not an array");
  return text;
}

const std::string& JsonValue::as_string() const {
  static_cast<void>(token().as_string());  // the kind check
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

/// The one JSON scanner: a recursive-descent cursor over the text.  It
/// validates as it goes, and allocates only to decode an escaped string,
/// into `scratch`.  The first escape reserves the whole text's length
/// there; decoding never lengthens a string, so the buffer never moves
/// and every view handed out stays valid for the scratch's life.
class JsonScanner {
 public:
  JsonScanner(const std::string_view text, std::string& scratch)
      : text_(text), scratch_(&scratch) {}

  [[nodiscard]] std::size_t position() const { return pos_; }

  /// The kind of the value at the cursor, after the depth bound check.
  JsonKind peek_value(const std::size_t depth) {
    expects(depth < kMaxJsonDepth, "json: nesting deeper than kMaxJsonDepth");
    switch (peek()) {
      case '{': return JsonKind::kObject;
      case '[': return JsonKind::kArray;
      case '"': return JsonKind::kString;
      case 't':
      case 'f': return JsonKind::kBool;
      case 'n': return JsonKind::kNull;
      default: return JsonKind::kNumber;
    }
  }

  /// Read the value at the cursor.  A string is decoded if `decode`;
  /// an array or object is validated and returned as its raw span.
  JsonToken value(const std::size_t depth, const bool decode = true) {
    const JsonKind kind = peek_value(depth);
    const std::size_t start = pos_;
    switch (kind) {
      case JsonKind::kObject:
        consume('{');
        for (bool first = true; more('}', first);) {
          static_cast<void>(string(false));
          consume(':');
          static_cast<void>(value(depth + 1, false));
        }
        break;
      case JsonKind::kArray:
        consume('[');
        for (bool first = true; more(']', first);) {
          static_cast<void>(value(depth + 1, false));
        }
        break;
      case JsonKind::kString: return {kind, string(decode)};
      case JsonKind::kBool:
        consume_literal(text_[pos_] == 't' ? "true" : "false");
        break;
      case JsonKind::kNull: consume_literal("null"); break;
      case JsonKind::kNumber: number(); break;
    }
    return {kind, text_.substr(start, pos_ - start)};
  }

  /// Step into the container at the cursor (peek_value said which).
  void open(const JsonKind kind) {
    consume(kind == JsonKind::kObject ? '{' : '[');
  }

  /// Whether another member of the open container follows; consumes the
  /// closing bracket or the separating comma.  `first` starts true.
  bool more(const char close, bool& first) {
    if (try_consume(close)) return false;
    if (!first) consume(',');
    first = false;
    return true;
  }

  /// A member's decoded key and the ':' after it.
  std::string_view key() {
    const std::string_view name = string(true);
    consume(':');
    return name;
  }

  /// Only whitespace may follow the document.
  void finish() {
    skip_whitespace();
    expects(pos_ == text_.size(),
            [this] { return "json: trailing garbage at offset " + offset(); });
  }

 private:
  [[nodiscard]] std::string offset() const { return std::to_string(pos_); }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    expects(pos_ < text_.size(), "json: unexpected end of input");
    return text_[pos_];
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
    expects(text_.substr(pos_, literal.size()) == literal,
            [this] { return "json: bad literal at offset " + offset(); });
    pos_ += literal.size();
  }

  /// A string at the cursor: a view of the source when it holds no
  /// escape, else (if `decode`) of its decoded bytes in scratch.
  /// Validation is the same either way.
  std::string_view string(const bool decode) {
    consume('"');
    const std::size_t start = pos_;
    // Most strings hold no escape: run to the first byte that needs a
    // look, and finish here if it is the closing quote.
    while (pos_ < text_.size()) {
      const auto ch = static_cast<unsigned char>(text_[pos_]);
      if (ch == '"' || ch == '\\' || ch < 0x20) break;
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '"') {
      return text_.substr(start, pos_++ - start);
    }
    std::size_t decoded = std::string::npos;  ///< scratch offset, once escaped
    while (true) {
      expects(pos_ < text_.size(), "json: unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') {
        if (decoded == std::string::npos) {
          return text_.substr(start, pos_ - 1 - start);
        }
        return std::string_view(*scratch_).substr(decoded);
      }
      if (ch != '\\') {
        expects(static_cast<unsigned char>(ch) >= 0x20, [this] {
          return "json: raw control character in string at offset " +
                 offset();
        });
        if (decoded != std::string::npos) scratch_->push_back(ch);
        continue;
      }
      if (decode && decoded == std::string::npos) {
        if (scratch_->capacity() < text_.size()) {
          scratch_->reserve(text_.size());
        }
        decoded = scratch_->size();
        scratch_->append(text_.substr(start, pos_ - 1 - start));
      }
      expects(pos_ < text_.size(), "json: unterminated escape");
      const char escape = text_[pos_++];
      char plain = 0;
      switch (escape) {
        case '"': plain = '"'; break;
        case '\\': plain = '\\'; break;
        case '/': plain = '/'; break;
        case 'b': plain = '\b'; break;
        case 'f': plain = '\f'; break;
        case 'n': plain = '\n'; break;
        case 'r': plain = '\r'; break;
        case 't': plain = '\t'; break;
        case 'u': {
          char utf8[3];
          const std::size_t length = unicode_escape(utf8);
          if (decoded != std::string::npos) scratch_->append(utf8, length);
          continue;
        }
        default:
          expects(false,
                  [this] { return "json: bad escape at offset " + offset(); });
      }
      if (decoded != std::string::npos) scratch_->push_back(plain);
    }
  }

  /// The four hex digits of a u-escape, UTF-8 encoded into `out`;
  /// returns the encoded length.
  std::size_t unicode_escape(char (&out)[3]) {
    expects(pos_ + 4 <= text_.size(), "json: truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char ch = text_[pos_++];
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
    // The writer only emits \u00xx control escapes, but arbitrary BMP
    // code points from external clients decode correctly (surrogate
    // pairs are rejected rather than silently mangled).
    expects(code < 0xD800 || code > 0xDFFF, [this] {
      return "json: surrogate escapes unsupported at offset " + offset();
    });
    if (code < 0x80) {
      out[0] = static_cast<char>(code);
      return 1;
    }
    if (code < 0x800) {
      out[0] = static_cast<char>(0xC0u | (code >> 6u));
      out[1] = static_cast<char>(0x80u | (code & 0x3Fu));
      return 2;
    }
    out[0] = static_cast<char>(0xE0u | (code >> 12u));
    out[1] = static_cast<char>(0x80u | ((code >> 6u) & 0x3Fu));
    out[2] = static_cast<char>(0x80u | (code & 0x3Fu));
    return 3;
  }

  void number() {
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto eat_digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      expects(pos_ > before,
              [this] { return "json: expected digit at offset " + offset(); });
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      eat_digits();
    }
  }

  std::string_view text_;
  std::string* scratch_;
  std::size_t pos_ = 0;
};

JsonView::JsonView(const std::string_view text) {
  JsonScanner scanner(text, scratch_);
  const JsonKind kind = scanner.peek_value(0);
  if (kind != JsonKind::kObject && kind != JsonKind::kArray) {
    root_ = scanner.value(0);
  } else {
    const std::size_t start = scanner.position();
    scanner.open(kind);
    const char close = kind == JsonKind::kObject ? '}' : ']';
    for (bool first = true; scanner.more(close, first);) {
      Member member;
      if (kind == JsonKind::kObject) member.key = scanner.key();
      member.value = scanner.value(1);
      add(member);
    }
    root_ = {kind, text.substr(start, scanner.position() - start)};
  }
  scanner.finish();
}

void JsonView::add(const Member& member) {
  if (size_ < kInlineMembers) {
    inline_[size_++] = member;
    return;
  }
  if (spill_.empty()) spill_.assign(inline_.begin(), inline_.end());
  spill_.push_back(member);
  ++size_;
}

const JsonToken* JsonView::find(const std::string_view name) const {
  expects(is_object(), "json: value is not an object");
  for (const Member& member : members()) {
    if (member.key == name) return &member.value;
  }
  return nullptr;
}

const JsonToken& JsonView::at(const std::string_view name) const {
  const JsonToken* found = find(name);
  expects(found != nullptr, [name] {
    return "json: missing key \"" + std::string(name) + "\"";
  });
  return *found;
}

/// parse_json's tree, built on the scanner.  Private API: only
/// parse_json constructs one.
class JsonTreeBuilder {
 public:
  static JsonValue build(JsonScanner& scanner, const std::size_t depth) {
    JsonValue node;
    node.kind_ = scanner.peek_value(depth);
    switch (node.kind_) {
      case JsonKind::kObject: {
        node.object_ = std::make_shared<JsonValue::Object>();
        scanner.open(JsonKind::kObject);
        for (bool first = true; scanner.more('}', first);) {
          std::string key(scanner.key());
          node.object_->emplace_back(std::move(key), build(scanner, depth + 1));
        }
        break;
      }
      case JsonKind::kArray:
        node.array_ = std::make_shared<JsonValue::Array>();
        scanner.open(JsonKind::kArray);
        for (bool first = true; scanner.more(']', first);) {
          node.array_->push_back(build(scanner, depth + 1));
        }
        break;
      default: node.text_ = scanner.value(depth).text; break;
    }
    return node;
  }
};

JsonValue parse_json(const std::string_view text) {
  std::string scratch;
  JsonScanner scanner(text, scratch);
  JsonValue document = JsonTreeBuilder::build(scanner, 0);
  scanner.finish();
  return document;
}

}  // namespace linesearch
