// util/jsonio.hpp — minimal streaming JSON emission + parsing.
//
// Machine-readable artifacts (fuzzer repro instances, stats_main's
// metric reports, the svc wire protocol) are JSON so CI can diff them
// and external tools can parse them without a CSV dialect.  Emission was
// the original scope; the service layer's newline-delimited wire format
// added the matching recursive-descent parser (`parse_json`), still
// dependency-free.
//
// Non-finite Reals are representable: JSON has no inf/nan literals, so
// `value(Real)` emits them as the STRINGS "inf"/"-inf"/"nan" (the same
// spellings as util/csv's encode_real_field, so one codec governs every
// serialization), and `JsonValue::as_real()` reads those strings back to
// kInfinity / -kInfinity / kNaN — CR = inf survives the wire losslessly.
// Finite values are numbers with 21 significant digits and round-trip
// exactly through strtold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/real.hpp"

namespace linesearch {

/// Escape a string for inclusion inside JSON double quotes.
[[nodiscard]] std::string json_escape(std::string_view text);

/// A Real as JsonWriter::value(Real) spells it: a number, or the quoted
/// codec string ("inf", "-inf", "nan") for a non-finite value.
[[nodiscard]] std::string json_real(Real number);

/// Streaming writer producing pretty-printed (2-space) JSON, or — in
/// compact mode — a single line with no whitespace at all (the service
/// wire format: one newline-delimited JSON document per message, where
/// the newline is the framing and must never appear inside a document).
/// The caller is responsible for well-formedness (every begin has an
/// end, keys only inside objects); the writer handles commas,
/// indentation and escaping.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, const bool compact = false)
      : out_(&out), compact_(compact) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit `"key":` — must be followed by a value or a begin_*.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text);
  JsonWriter& value(Real number);
  JsonWriter& value(int number);
  JsonWriter& value(long long number);
  JsonWriter& value(std::size_t number);
  JsonWriter& value(bool flag);

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

 private:
  void separate();  ///< comma + newline between siblings, then indent
  void open(char bracket);
  void close(char bracket);

  std::ostream* out_;
  bool compact_ = false;     ///< single line, no indentation or spaces
  int depth_ = 0;
  bool first_ = true;        ///< no sibling emitted yet at this depth
  bool after_key_ = false;   ///< next value sits on the key's line
};

/// Parsed JSON document node.  Objects preserve key order (the writer is
/// deterministic, so replayed fixtures stay byte-comparable after a
/// parse → re-emit round trip).  Numbers keep their source text so
/// integer fields exceeding double precision survive via as_uint64.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Bool value; throws PreconditionError on kind mismatch.
  [[nodiscard]] bool as_bool() const;

  /// Real value.  Accepts numbers AND the codec strings "inf" / "-inf" /
  /// "nan" emitted by JsonWriter::value(Real) — the lossless non-finite
  /// round trip.  Throws PreconditionError otherwise.
  [[nodiscard]] Real as_real() const;

  /// Integer value (number with no fractional part); throws otherwise.
  [[nodiscard]] long long as_int() const;

  /// Non-negative integer value; throws on sign/kind mismatch.
  [[nodiscard]] std::uint64_t as_uint64() const;

  /// String value; throws on kind mismatch.
  [[nodiscard]] const std::string& as_string() const;

  /// Array elements; throws on kind mismatch.
  [[nodiscard]] const Array& as_array() const;

  /// Object members in source order; throws on kind mismatch.
  [[nodiscard]] const Object& as_object() const;

  /// Lookup in an object: nullptr if `name` is absent (first match wins).
  [[nodiscard]] const JsonValue* find(std::string_view name) const;

  /// Lookup in an object; throws PreconditionError if absent.
  [[nodiscard]] const JsonValue& at(std::string_view name) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string text_;  ///< number source text, or string payload
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parse one JSON document (the whole string except trailing whitespace
/// must be consumed).  Throws PreconditionError with a byte offset on
/// malformed input.  Depth is bounded (kMaxJsonDepth) so hostile wire
/// input cannot blow the stack.
[[nodiscard]] JsonValue parse_json(const std::string& text);

/// Maximum nesting depth parse_json accepts.
inline constexpr std::size_t kMaxJsonDepth = 64;

}  // namespace linesearch
