// Streaming JSON writer + recursive-descent parser, including the
// lossless non-finite Real codec (CR = inf must survive the wire).
#include "util/jsonio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/real.hpp"

namespace linesearch {
namespace {

std::string emit(const std::function<void(JsonWriter&)>& body) {
  std::ostringstream out;
  JsonWriter json(out);
  body(json);
  return out.str();
}

TEST(JsonWriter, ObjectWithScalarFields) {
  const std::string text = emit([](JsonWriter& json) {
    json.begin_object();
    json.field("name", "A(5,2)");
    json.field("n", 5);
    json.field("ok", true);
    json.end_object();
  });
  EXPECT_NE(text.find("\"name\": \"A(5,2)\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"n\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.substr(text.size() - 2), "}\n");
}

TEST(JsonWriter, NonFiniteRealsBecomeCodecStrings) {
  const std::string text = emit([](JsonWriter& json) {
    json.begin_array();
    json.value(kInfinity);
    json.value(-kInfinity);
    json.value(kNaN);
    json.value(Real{1.5L});
    json.end_array();
  });
  EXPECT_NE(text.find("\"inf\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"-inf\""), std::string::npos);
  EXPECT_NE(text.find("\"nan\""), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  // Finite values are bare JSON numbers, not strings.
  EXPECT_EQ(text.find("\"1.5"), std::string::npos);
}

TEST(JsonWriter, FiniteRealsRoundTripThroughTheSharedCodec) {
  const Real original = 0.1L + 0.2L;  // not exactly representable
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(original);
  json.end_array();
  std::string text = out.str();
  // Strip the array brackets/whitespace to recover the number token.
  std::string token;
  for (const char c : text) {
    if ((c >= '0' && c <= '9') || c == '.' || c == '-' || c == 'e' ||
        c == '+') {
      token += c;
    }
  }
  EXPECT_EQ(parse_real_field(token), original);
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  const std::string escaped = json_escape(std::string(1, '\x01'));
  EXPECT_EQ(escaped, "\\u0001");
}

TEST(JsonWriter, NestedStructuresAndEmptyContainers) {
  const std::string text = emit([](JsonWriter& json) {
    json.begin_object();
    json.key("empty_array").begin_array();
    json.end_array();
    json.key("empty_object").begin_object();
    json.end_object();
    json.key("nested").begin_array();
    json.begin_object();
    json.field("i", 0);
    json.end_object();
    json.begin_object();
    json.field("i", 1);
    json.end_object();
    json.end_array();
    json.end_object();
  });
  EXPECT_NE(text.find("\"empty_array\": []"), std::string::npos) << text;
  EXPECT_NE(text.find("\"empty_object\": {}"), std::string::npos);
  EXPECT_NE(text.find("\"i\": 1"), std::string::npos);
}

TEST(JsonWriter, CompactModeEmitsOneLineWithoutWhitespace) {
  std::ostringstream out;
  JsonWriter json(out, /*compact=*/true);
  json.begin_object();
  json.field("op", "cr");
  json.field("n", 5);
  json.key("xs").begin_array();
  json.value(Real{1.0L});
  json.value(kInfinity);
  json.end_array();
  json.end_object();
  EXPECT_EQ(out.str(), R"json({"op":"cr","n":5,"xs":[1,"inf"]})json");
  // The wire framing contract: no newline anywhere inside the document.
  EXPECT_EQ(out.str().find('\n'), std::string::npos);
}

TEST(JsonParser, ParsesScalarsArraysAndObjectsInOrder) {
  const JsonValue doc = parse_json(
      R"json({"name": "A(5,2)", "n": 5, "ok": true, "none": null,)json"
      R"json( "xs": [1, 2.5, -3e2]})json");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").as_string(), "A(5,2)");
  EXPECT_EQ(doc.at("n").as_int(), 5);
  EXPECT_EQ(doc.at("n").as_uint64(), 5u);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  const auto& xs = doc.at("xs").as_array();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0].as_real(), 1.0L);
  EXPECT_EQ(xs[1].as_real(), 2.5L);
  EXPECT_EQ(xs[2].as_real(), -300.0L);
  // Key order is source order — fixture replay depends on it.
  EXPECT_EQ(doc.as_object().front().first, "name");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), PreconditionError);
}

TEST(JsonParser, NonFiniteRealsRoundTripLosslessly) {
  // The regression this pins: CR = inf (undetected half-line) written by
  // JsonWriter must come back as the same non-finite Real, not a string
  // error and not a clipped finite value.
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("cr", kInfinity);
  json.field("neg", -kInfinity);
  json.field("gap", kNaN);
  json.field("finite", Real{0.1L + 0.2L});
  json.end_object();

  const JsonValue doc = parse_json(out.str());
  EXPECT_TRUE(std::isinf(doc.at("cr").as_real()));
  EXPECT_GT(doc.at("cr").as_real(), 0.0L);
  EXPECT_TRUE(std::isinf(doc.at("neg").as_real()));
  EXPECT_LT(doc.at("neg").as_real(), 0.0L);
  EXPECT_TRUE(std::isnan(doc.at("gap").as_real()));
  // Finite values round-trip bit-exactly through the 21-digit codec.
  EXPECT_EQ(doc.at("finite").as_real(), 0.1L + 0.2L);
}

/// The message a failed call throws as PreconditionError, without the
/// " [file:line in function]" location suffix of what(); "(no error)"
/// when the call returns normally.
std::string precondition_message(const std::function<void()>& call) {
  try {
    call();
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    return what.substr(0, what.find(" ["));
  }
  return "(no error)";
}

std::string parse_message(const std::string& text) {
  return precondition_message([&text] { (void)parse_json(text); });
}

TEST(JsonParser, DecodesEscapesAndRejectsMalformedInput) {
  const JsonValue doc = parse_json(R"({"s": "a\"b\\c\ndA"})");
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\\c\nd\x41");

  EXPECT_THROW((void)parse_json(""), PreconditionError);
  EXPECT_THROW((void)parse_json("{"), PreconditionError);
  EXPECT_THROW((void)parse_json("[1,]"), PreconditionError);
  EXPECT_THROW((void)parse_json("{\"a\" 1}"), PreconditionError);
  EXPECT_THROW((void)parse_json("tru"), PreconditionError);
  EXPECT_THROW((void)parse_json("1 2"), PreconditionError);
  EXPECT_THROW((void)parse_json("\"unterminated"), PreconditionError);
  EXPECT_THROW((void)parse_json("01x"), PreconditionError);

  // The message text of every failure kind is pinned byte for byte:
  // error responses carry it on the wire.
  EXPECT_EQ(parse_message(""), "json: unexpected end of input");
  EXPECT_EQ(parse_message("1 2"), "json: trailing garbage at offset 2");
  EXPECT_EQ(parse_message("01x"), "json: trailing garbage at offset 2");
  // An expected-char offset is where the search began, before the
  // whitespace in front of the offending byte.
  EXPECT_EQ(parse_message("{\"a\" 1}"), "json: expected ':' at offset 4");
  EXPECT_EQ(parse_message("[1 2]"), "json: expected ',' at offset 3");
  EXPECT_EQ(parse_message("tru"), "json: bad literal at offset 0");
  EXPECT_EQ(parse_message("nul"), "json: bad literal at offset 0");
  EXPECT_EQ(parse_message("\"a\x01\""),
            "json: raw control character in string at offset 3");
  EXPECT_EQ(parse_message(R"("\q")"), "json: bad escape at offset 3");
  EXPECT_EQ(parse_message(R"("\u00g0")"), "json: bad \\u digit at offset 6");
  EXPECT_EQ(parse_message(R"("\u12")"), "json: truncated \\u escape");
  EXPECT_EQ(parse_message(R"("\ud800")"),
            "json: surrogate escapes unsupported at offset 7");
  EXPECT_EQ(parse_message("[1,]"), "json: expected digit at offset 3");
  EXPECT_EQ(parse_message("-x"), "json: expected digit at offset 1");
  EXPECT_EQ(parse_message("1.e5"), "json: expected digit at offset 2");
  EXPECT_EQ(parse_message("\"unterminated"), "json: unterminated string");
  EXPECT_EQ(parse_message("\"a\\"), "json: unterminated escape");

  const JsonValue object = parse_json(R"({"a": 1.5, "b": -1, "c": "x"})");
  EXPECT_EQ(precondition_message([&] { (void)object.at("zz"); }),
            "json: missing key \"zz\"");
  EXPECT_EQ(precondition_message([&] { (void)object.at("a").as_int(); }),
            "json: number is not an integer: 1.5");
  EXPECT_EQ(precondition_message([&] { (void)object.at("b").as_uint64(); }),
            "json: number is negative: -1");
  EXPECT_EQ(precondition_message([&] { (void)object.at("a").as_uint64(); }),
            "json: number is not an unsigned integer: 1.5");
  EXPECT_EQ(precondition_message([&] { (void)object.at("c").as_real(); }),
            "csv: malformed number 'x'");
  EXPECT_EQ(precondition_message([&] { (void)object.at("c").as_int(); }),
            "json: value is not a number");
}

TEST(JsonParser, RejectsOutOfRangeIntegers) {
  // strtoll/strtoull saturate out-of-range text; the conversion must
  // refuse it, not hand back a clamped value the document never held.
  EXPECT_EQ(precondition_message([] {
              (void)parse_json("99999999999999999999").as_int();
            }),
            "json: integer out of range: 99999999999999999999");
  EXPECT_EQ(precondition_message([] {
              (void)parse_json("-99999999999999999999").as_int();
            }),
            "json: integer out of range: -99999999999999999999");
  EXPECT_EQ(precondition_message([] {
              (void)parse_json("9223372036854775808").as_int();
            }),
            "json: integer out of range: 9223372036854775808");
  EXPECT_EQ(precondition_message([] {
              (void)parse_json("184467440737095516160").as_uint64();
            }),
            "json: integer out of range: 184467440737095516160");
  // The extremes themselves still convert.
  EXPECT_EQ(parse_json("9223372036854775807").as_int(), INT64_MAX);
  EXPECT_EQ(parse_json("-9223372036854775808").as_int(), INT64_MIN);
  EXPECT_EQ(parse_json("18446744073709551615").as_uint64(), UINT64_MAX);
}

TEST(JsonView, HandsBackTopLevelMembersWithoutATree) {
  const std::string text =
      R"( {"a": 1, "\u0062": "x\ty", "c": [1, {"d": "\u0065"}], "a": 2} )";
  const JsonView view(text);
  ASSERT_TRUE(view.is_object());
  ASSERT_EQ(view.members().size(), 4u);
  EXPECT_EQ(view.members()[1].key, "b");
  EXPECT_EQ(view.members()[1].value.as_string(), "x\ty");
  // Nested values are raw, validated spans of the source.
  EXPECT_EQ(view.at("c").as_array(), R"([1, {"d": "\u0065"}])");
  EXPECT_EQ(view.root().text, text.substr(1, text.size() - 2));
  // Duplicate keys: the first match wins, as in JsonValue::find.
  EXPECT_EQ(view.at("a").as_int(), 1);
  EXPECT_EQ(view.find("zz"), nullptr);
  EXPECT_EQ(precondition_message([&] { (void)view.at("zz"); }),
            "json: missing key \"zz\"");

  // An unescaped string is a view into the source.
  const std::string plain = R"({"k": "value"})";
  const JsonView plain_view(plain);
  const std::string_view value = plain_view.at("k").as_string();
  EXPECT_GE(value.data(), plain.data());
  EXPECT_LT(value.data(), plain.data() + plain.size());

  // An array root's members are its elements, with empty keys; more
  // than the inline capacity spills over intact.
  std::string array = "[0";
  for (int i = 1; i < 40; ++i) array += "," + std::to_string(i);
  array += "]";
  const JsonView elements(array);
  ASSERT_EQ(elements.members().size(), 40u);
  long long expected = 0;
  for (const JsonView::Member& element : elements.members()) {
    EXPECT_TRUE(element.key.empty());
    EXPECT_EQ(element.value.as_int(), expected++);
  }
  EXPECT_EQ(precondition_message([&] { (void)elements.find("x"); }),
            "json: value is not an object");
}

TEST(JsonView, RejectsWhatParseJsonRejectsWithTheSameMessage) {
  for (const std::string text :
       {"", "1 2", "01x", "{\"a\" 1}", "[1 2]", "tru", "\"a\x01\"",
        R"("\q")", R"("\u00g0")", R"("\u12")", R"("\ud800")", "[1,]", "-x",
        "1.e5", "\"unterminated", "\"a\\", R"({"a":[1,"\q"]})",
        R"({"a":{"b":tru}})", "{\"a\":1,}"}) {
    const std::string want = parse_message(text);
    ASSERT_NE(want, "(no error)") << text;
    EXPECT_EQ(precondition_message([&] { const JsonView view(text); }), want)
        << text;
  }
}

TEST(JsonParser, BoundsNestingDepth) {
  std::string deep;
  for (std::size_t i = 0; i < kMaxJsonDepth + 1; ++i) deep += '[';
  for (std::size_t i = 0; i < kMaxJsonDepth + 1; ++i) deep += ']';
  EXPECT_THROW((void)parse_json(deep), PreconditionError);
  // One level under the cap parses fine.
  std::string ok;
  for (std::size_t i = 0; i < kMaxJsonDepth; ++i) ok += '[';
  for (std::size_t i = 0; i < kMaxJsonDepth; ++i) ok += ']';
  EXPECT_TRUE(parse_json(ok).is_array());
}

TEST(JsonParser, WriterOutputReparsesToSameStructure) {
  // Emit the shape the service wire uses, parse it back, and re-emit:
  // both serializations must be byte-identical (the golden-fixture
  // replay contract).
  const auto render = [](const JsonValue* doc) {
    std::ostringstream out;
    JsonWriter json(out);
    if (doc == nullptr) {
      json.begin_object();
      json.field("id", 7);
      json.field("cr", kInfinity);
      json.key("probes").begin_array();
      json.value(Real{1.0L});
      json.value(Real{9.5L});
      json.end_array();
      json.field("ok", true);
      json.end_object();
    } else {
      json.begin_object();
      json.field("id", static_cast<int>(doc->at("id").as_int()));
      json.field("cr", doc->at("cr").as_real());
      json.key("probes").begin_array();
      for (const JsonValue& probe : doc->at("probes").as_array()) {
        json.value(probe.as_real());
      }
      json.end_array();
      json.field("ok", doc->at("ok").as_bool());
      json.end_object();
    }
    return out.str();
  };
  const std::string first = render(nullptr);
  const JsonValue doc = parse_json(first);
  EXPECT_EQ(render(&doc), first);
}

}  // namespace
}  // namespace linesearch
