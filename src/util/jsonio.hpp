// util/jsonio.hpp — minimal streaming JSON emission + parsing.
//
// Machine-readable artifacts (fuzzer repro instances, stats_main's
// metric reports, the svc wire protocol) are JSON so CI can diff them
// and external tools can parse them without a CSV dialect.  Emission was
// the original scope; the service layer's newline-delimited wire format
// added the matching recursive-descent parser, still dependency-free.
//
// One grammar, two readers.  A single scanner validates a document over
// a string_view: grammar, error messages and byte offsets, and the
// kMaxJsonDepth bound.  It allocates nothing except where a string
// holds an escape, which it decodes into scratch storage.
//   * JsonView reads a document without a tree: it validates the whole
//     text, then hands back the root's direct members (key, JsonToken)
//     in source order.  Unescaped keys and strings are views into the
//     source; nested arrays and objects are validated raw spans.  The
//     wire decoders (svc::parse_request, peek_request_id and the
//     client's response classification) read requests this way.
//   * parse_json builds a JsonValue tree on the same scanner, for
//     snapshots, fuzz repros, stats_main and the differentials.
// The conversions (as_int, as_real, ...) are JsonToken's; JsonValue's
// accessors call them, so both readers convert identically.  Duplicate
// keys are kept; every lookup returns the first match.
//
// Non-finite Reals are representable: JSON has no inf/nan literals, so
// `value(Real)` emits them as the STRINGS "inf"/"-inf"/"nan" (the same
// spellings as util/csv's encode_real_field, so one codec governs every
// serialization), and `as_real()` reads those strings back to
// kInfinity / -kInfinity / kNaN — CR = inf survives the wire losslessly.
// Finite values are numbers with 21 significant digits and round-trip
// exactly through strtold.  Integers outside the 64-bit range are
// refused, never clamped.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
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

/// Maximum nesting depth the scanner accepts.
inline constexpr std::size_t kMaxJsonDepth = 64;

enum class JsonKind { kNull, kBool, kNumber, kString, kArray, kObject };

/// One JSON value as the scanner read it.  `text` is a number's source
/// text, a string's decoded payload, "true"/"false"/"null", or an array's
/// or object's raw source span, brackets included (validated, not
/// decoded).  These are the only JSON conversions in the library.
struct JsonToken {
  JsonKind kind = JsonKind::kNull;
  std::string_view text;

  /// Bool value; throws PreconditionError on kind mismatch.
  [[nodiscard]] bool as_bool() const;

  /// Real value.  Accepts numbers AND the codec strings "inf" / "-inf" /
  /// "nan" emitted by JsonWriter::value(Real) — the lossless non-finite
  /// round trip.  A string goes through parse_real_field as it is, so
  /// "-" reads as NaN and leading whitespace is skipped.  Throws
  /// PreconditionError otherwise.
  [[nodiscard]] Real as_real() const;

  /// Integer value (number with no fractional part or exponent); throws
  /// otherwise, and when the number is outside the long long range.
  [[nodiscard]] long long as_int() const;

  /// Non-negative integer value; throws on sign/kind mismatch or when
  /// the number exceeds the uint64 range.
  [[nodiscard]] std::uint64_t as_uint64() const;

  /// String payload; throws on kind mismatch.
  [[nodiscard]] std::string_view as_string() const;

  /// An array's raw source span, for a JsonView to walk; throws on kind
  /// mismatch.
  [[nodiscard]] std::string_view as_array() const;
};

/// A validated JSON document read without a tree: the root, and for an
/// object or array root its direct members in source order (an array's
/// members have empty keys).  Construction validates the whole text and
/// throws PreconditionError with parse_json's message on malformed
/// input; it allocates only for an escaped string or past 16 members.
/// Views point into `text` and into the view's own scratch, so the text
/// must outlive the view, and the view does not move.
class JsonView {
 public:
  struct Member {
    std::string_view key;
    JsonToken value;
  };

  explicit JsonView(std::string_view text);
  JsonView(const JsonView&) = delete;
  JsonView& operator=(const JsonView&) = delete;

  [[nodiscard]] const JsonToken& root() const { return root_; }
  [[nodiscard]] bool is_object() const {
    return root_.kind == JsonKind::kObject;
  }

  [[nodiscard]] std::span<const Member> members() const {
    return size_ <= kInlineMembers
               ? std::span<const Member>(inline_.data(), size_)
               : std::span<const Member>(spill_);
  }

  /// Lookup in an object root: nullptr if `name` is absent (first match
  /// wins); throws if the root is not an object.
  [[nodiscard]] const JsonToken* find(std::string_view name) const;

  /// Lookup in an object root; throws PreconditionError if absent.
  [[nodiscard]] const JsonToken& at(std::string_view name) const;

 private:
  static constexpr std::size_t kInlineMembers = 16;

  void add(const Member& member);

  JsonToken root_;
  std::array<Member, kInlineMembers> inline_{};
  std::vector<Member> spill_;  ///< every member, once past kInlineMembers
  std::size_t size_ = 0;
  std::string scratch_;  ///< decoded escaped strings
};

/// Parsed JSON document node.  Objects preserve key order (the writer is
/// deterministic, so replayed fixtures stay byte-comparable after a
/// parse → re-emit round trip).  Numbers keep their source text so
/// integer fields exceeding double precision survive via as_uint64.
class JsonValue {
 public:
  using Kind = JsonKind;
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

  /// The scalar conversions are JsonToken's (see there).
  [[nodiscard]] bool as_bool() const { return token().as_bool(); }
  [[nodiscard]] Real as_real() const { return token().as_real(); }
  [[nodiscard]] long long as_int() const { return token().as_int(); }
  [[nodiscard]] std::uint64_t as_uint64() const {
    return token().as_uint64();
  }

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
  friend class JsonTreeBuilder;

  /// A scalar's kind and text (empty text for arrays and objects).
  [[nodiscard]] JsonToken token() const { return {kind_, text_}; }

  Kind kind_ = Kind::kNull;
  std::string text_;  ///< a scalar's token text, owned
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parse one JSON document into a tree (the whole text except trailing
/// whitespace must be consumed).  Throws PreconditionError with a byte
/// offset on malformed input.  Depth is bounded (kMaxJsonDepth) so
/// hostile wire input cannot blow the stack.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace linesearch
