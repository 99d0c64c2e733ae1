// The wire decoders against a reference built on the JSON tree.
//
// parse_request, peek_request_id and the client's response
// classification read the wire.  The reference decoders below read the
// same lines through parse_json + JsonValue::find, the way the service
// decoded requests before its decoders stopped building a tree.  Over a
// seeded corpus of well-formed, hand-crafted and mutated lines they
// must agree exactly: the same id and bit-identical CrQuery fields, or
// a byte-equal error message; and the same client outcome (ok,
// attempts, error text, response bytes).
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/validation.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/error.hpp"
#include "util/jsonio.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace svc {
namespace {

using verify::value_identical;

// ---- reference decoders on the JSON tree ----

Real ref_real_field(const JsonValue& doc, const char* name,
                    const Real fallback) {
  const JsonValue* found = doc.find(name);
  return found == nullptr ? fallback : found->as_real();
}

int ref_int_field(const JsonValue& doc, const char* name,
                  const int fallback) {
  const JsonValue* found = doc.find(name);
  if (found == nullptr) return fallback;
  const long long value = found->as_int();
  expects(value >= INT_MIN && value <= INT_MAX, [name] {
    return std::string("svc: field '") + name + "' out of int range";
  });
  return static_cast<int>(value);
}

WireRequest ref_parse_request(const std::string& line) {
  const JsonValue doc = parse_json(line);
  expects(doc.is_object(), "svc: request must be a JSON object");
  WireRequest request;
  if (const JsonValue* id = doc.find("id"); id != nullptr) {
    request.id = id->as_int();
  }
  const std::string& op = doc.at("op").as_string();
  expects(op == "cr",
          [&op] { return "svc: unknown op '" + op + "' (valid: cr)"; });
  CrQuery& query = request.query;
  query.n = ref_int_field(doc, "n", query.n);
  query.f = ref_int_field(doc, "f", query.f);
  query.beta = ref_real_field(doc, "beta", query.beta);
  query.window_lo = ref_real_field(doc, "window_lo", query.window_lo);
  query.window_hi = ref_real_field(doc, "window_hi", query.window_hi);
  query.interior_samples =
      ref_int_field(doc, "interior_samples", query.interior_samples);
  if (const JsonValue* regime = doc.find("regime"); regime != nullptr) {
    query.regime = fault_regime_from_name(regime->as_string());
  }
  if (const JsonValue* crashes = doc.find("crash_times");
      crashes != nullptr) {
    for (const JsonValue& entry : crashes->as_array()) {
      query.crash_times.push_back(entry.as_real());
    }
  }
  query.fault_p = ref_real_field(doc, "fault_p", query.fault_p);
  return request;
}

long long ref_peek_request_id(const std::string& line) {
  try {
    const JsonValue doc = parse_json(line);
    if (!doc.is_object()) return 0;
    const JsonValue* id = doc.find("id");
    return id == nullptr ? 0 : id->as_int();
  } catch (const std::exception&) {
    return 0;
  }
}

enum class RefReply { kForeign, kRetryable, kAnswer };

RefReply ref_classify(const std::string& line, const long long expected_id) {
  JsonValue doc;
  try {
    doc = parse_json(line);
    if (!doc.is_object()) return RefReply::kForeign;
    const JsonValue* id = doc.find("id");
    if (id == nullptr || id->as_int() != expected_id) {
      return RefReply::kForeign;
    }
  } catch (const std::exception&) {
    return RefReply::kForeign;
  }
  const JsonValue* ok = doc.find("ok");
  if (ok == nullptr) return RefReply::kForeign;
  if (!ok->is_bool() || ok->as_bool()) return RefReply::kAnswer;
  const JsonValue* error = doc.find("error");
  if (error == nullptr || !error->is_string()) return RefReply::kAnswer;
  const std::string& text = error->as_string();
  return text == "overloaded" || text.starts_with("draining")
             ? RefReply::kRetryable
             : RefReply::kAnswer;
}

// ---- comparison ----

/// The outcome of one decode: the request, or the error's message text
/// (no source location).
struct Decoded {
  bool threw = false;
  std::string message;
  WireRequest request;
};

std::string message_of(const std::exception& failure) {
  if (const auto* error = dynamic_cast<const Error*>(&failure)) {
    return std::string(error->message());
  }
  return failure.what();
}

template <typename Decode>
Decoded decode_with(Decode&& decode, const std::string& line) {
  Decoded out;
  try {
    out.request = decode(line);
  } catch (const std::exception& failure) {
    out.threw = true;
    out.message = message_of(failure);
  }
  return out;
}

/// "" when the two decodes agree, else what differs.
std::string difference(const Decoded& want, const Decoded& got) {
  if (want.threw != got.threw || want.message != got.message) {
    return "error: want '" + want.message + "' got '" + got.message + "'";
  }
  if (want.threw) return "";
  const CrQuery& a = want.request.query;
  const CrQuery& b = got.request.query;
  if (want.request.id != got.request.id) return "id";
  if (a.n != b.n) return "n";
  if (a.f != b.f) return "f";
  if (!value_identical(a.beta, b.beta)) return "beta";
  if (!value_identical(a.window_lo, b.window_lo)) return "window_lo";
  if (!value_identical(a.window_hi, b.window_hi)) return "window_hi";
  if (a.interior_samples != b.interior_samples) return "interior_samples";
  if (a.regime != b.regime) return "regime";
  if (a.crash_times.size() != b.crash_times.size()) return "crash_times size";
  for (std::size_t i = 0; i < a.crash_times.size(); ++i) {
    if (!value_identical(a.crash_times[i], b.crash_times[i])) {
      return "crash_times[" + std::to_string(i) + "]";
    }
  }
  if (!value_identical(a.fault_p, b.fault_p)) return "fault_p";
  return "";
}

// ---- corpus ----

std::vector<std::string> golden_lines(const bool responses) {
  std::ifstream in(LS_SVC_GOLDEN_FIXTURE);
  std::vector<std::string> lines;
  std::string line;
  for (bool response = false; std::getline(in, line); response = !response) {
    if (response == responses) lines.push_back(line);
  }
  return lines;
}

CrQuery pair_query(const std::pair<int, int>& pair, const FaultRegime regime,
                   const Real window_hi, const int interior_samples) {
  CrQuery query;
  query.n = pair.first;
  query.f = pair.second;
  query.regime = regime;
  query.window_hi = window_hi;
  query.interior_samples = interior_samples;
  return query;
}

template <typename T>
const T& pick(SplitMix64& rng, const std::vector<T>& items) {
  return items[rng.next() % items.size()];
}

/// Well-formed request lines: the golden requests, the 205 svc_hot
/// bodies, and svc_cold- and svc_mixed-shaped rendered queries.
std::vector<std::string> base_requests(SplitMix64& rng) {
  std::vector<std::string> lines = golden_lines(false);
  const std::vector<std::pair<int, int>> pairs =
      proportional_regime_pairs(12);
  long long id = 1;
  for (const auto& pair : pairs) {
    for (const Real window : {64.0L, 256.0L, 1024.0L, 4096.0L, 16384.0L}) {
      lines.push_back(render_request(
          id++, pair_query(pair, FaultRegime::kNone, window, 4)));
    }
  }
  const std::vector<std::pair<int, int>> diagonal = {
      {3, 1}, {5, 2}, {7, 3}, {9, 4}, {11, 5}};
  const std::vector<int> cold_interiors = {4, 16, 64};
  for (int i = 0; i < 300; ++i) {
    const bool byzantine = rng.chance(0.25L);
    const Real window = std::exp2(rng.uniform(8, 16));
    lines.push_back(render_request(
        id++, pair_query(byzantine ? pick(rng, diagonal) : pick(rng, pairs),
                         byzantine ? FaultRegime::kByzantine
                                   : FaultRegime::kNone,
                         window, pick(rng, cold_interiors))));
  }
  const std::vector<Real> fault_ps = {0.05L, 0.1L, 0.2L, 0.3L, 0.5L, 0.7L};
  for (int i = 0; i < 300; ++i) {
    const auto regime = static_cast<FaultRegime>(rng.next() % 4);
    CrQuery query = pair_query(pick(rng, pairs), regime,
                               std::exp2(rng.uniform(2, 12)),
                               rng.chance(0.5L) ? 4 : 16);
    if (regime == FaultRegime::kCrash) {
      query.crash_times.assign(static_cast<std::size_t>(query.n), kInfinity);
      query.crash_times[rng.next() % query.crash_times.size()] =
          query.window_hi * rng.uniform(1, 4);
    }
    if (regime == FaultRegime::kProbabilistic) {
      query.fault_p = pick(rng, fault_ps);
    }
    lines.push_back(render_request(id++, query));
  }
  return lines;
}

std::string nested(const std::size_t depth) {
  // `depth` levels of unknown member, counted from the request object's
  // own value level (the request object is level 0).
  std::string value = "1";
  for (std::size_t i = 1; i < depth; ++i) {
    value = (i % 2 == 0 ? "[" + value + "]" : "{\"x\":" + value + "}");
  }
  return value;
}

/// Hand-built edge cases: duplicates, escaped keys, padding, nesting at
/// the depth bound, odd ids, reals sent as strings, bad crash_times.
std::vector<std::string> crafted_requests() {
  std::vector<std::string> lines = {
      R"({"op":"cr","n":5,"f":2,"n":3})",
      R"({"op":"cr","n":3,"op":"shutdown"})",
      R"({"op":"shutdown","op":"cr"})",
      R"({"id":4,"id":5,"op":"cr"})",
      R"({"id":"x","id":5,"op":"cr"})",
      R"({"op":"cr","beta":2.5,"beta":"bad"})",
      R"({"op":"cr","crash_times":[1,2],"crash_times":"x"})",
      R"({"\u006f\u0070":"cr","\u006e":5,"\u0066":2})",
      R"({"op":"\u0063r","regime":"by\u007aantine"})",
      R"({"op":"cr","regime":"\u0062yzantine","n":3,"f":1})",
      R"({"op":"cr","window_h\u0069":"\u0069nf"})",
      R"({"op":"cr","beta":"2\u002e5"})",
      R"({"op":"cr","beta":"5\u0000x"})",
      R"({"op":"c\u0000r"})",
      R"({"op":"cr","crash_times":["\u0069nf",1e3,"-inf"]})",
      "  {  \"id\" :  9 ,\t\"op\"\n:\r\"cr\" , \"n\" : 3 , \"f\" : 1 }  ",
      "\t{\"op\":\"cr\"}\r\n ",
      R"({"id":1.5,"op":"cr"})",
      R"({"id":-0,"op":"cr"})",
      R"({"id":9223372036854775808,"op":"cr"})",
      R"({"id":9223372036854775807,"op":"cr"})",
      R"({"id":-9223372036854775808,"op":"cr"})",
      R"({"id":-9223372036854775809,"op":"cr"})",
      R"({"id":1e2,"op":"cr"})",
      R"({"id":007,"op":"cr"})",
      R"({"id":true,"op":"cr"})",
      R"({"id":null,"op":"cr"})",
      R"({"op":"cr","beta":"inf"})",
      R"({"op":"cr","beta":"-"})",
      R"({"op":"cr","beta":" 5"})",
      R"({"op":"cr","beta":"2.5x"})",
      R"({"op":"cr","beta":""})",
      R"({"op":"cr","beta":"NaN"})",
      R"({"op":"cr","beta":"-infinity"})",
      R"({"op":"cr","beta":"0x1p3"})",
      R"({"op":"cr","beta":true})",
      R"({"op":"cr","beta":[2.5]})",
      R"({"op":"cr","beta":1e99999})",
      R"({"op":"cr","fault_p":"0.25","regime":"probabilistic"})",
      R"({"op":"cr","crash_times":2.5})",
      R"({"op":"cr","crash_times":"inf"})",
      R"({"op":"cr","crash_times":{"a":1}})",
      R"({"op":"cr","crash_times":null})",
      R"({"op":"cr","crash_times":[]})",
      R"({"op":"cr","crash_times":[1,[2]]})",
      R"({"op":"cr","crash_times":[1,"x"]})",
      R"({"op":"cr","n":3000000000})",
      R"({"op":"cr","n":-2147483648,"f":-2147483649})",
      R"({"op":"cr","interior_samples":99999999999999999999})",
      R"({"op":"cr","n":"3"})",
      R"({"op":"cr","regime":3})",
      R"({"op":3})",
      R"({"op":null})",
      R"({})",
      R"([])",
      R"([{"op":"cr"}])",
      R"("cr")",
      R"(17)",
      R"(null)",
      "",
      " ",
      R"({"op":"cr"}x)",
      R"({"op":"cr",})",
      R"({"op":"cr" "n":3})",
      R"({,"op":"cr"})",
      R"({"op":"cr"}})",
      R"({"op":"cr","x":[1,2,{"y":[true,false,null]}]})",
  };
  for (const std::size_t depth : {62, 63, 64, 65}) {
    lines.push_back(R"({"op":"cr","deep":)" + nested(depth) + "}");
    lines.push_back(R"({"deep":)" + nested(depth) + R"(,"op":"bad"})");
    lines.push_back(R"({"id":3,"deep":)" + nested(depth) + R"(,"op":"cr"})");
  }
  return lines;
}

/// One seeded mutation of `line`: a byte flip, a truncation, a
/// deletion, a duplicated member, or a padded separator.
std::string mutate(const std::string& line, SplitMix64& rng) {
  std::string out = line;
  if (out.empty()) return "x";
  const std::size_t at = rng.next() % out.size();
  switch (rng.next() % 7) {
    case 0: {  // flip to a random byte
      out[at] = static_cast<char>(rng.next() & 0xFFu);
      break;
    }
    case 1: {  // flip to a byte JSON cares about
      static const std::string kSyntax = "{}[]\",:\\ 0-.eEtfnu";
      out[at] = kSyntax[rng.next() % kSyntax.size()];
      break;
    }
    case 2: out.resize(at); break;
    case 3: out.erase(at, 1 + rng.next() % 4); break;
    case 4: {  // duplicate a member with a different value in front
      static const std::vector<std::string> kDupes = {
          R"("n":7,)",          R"("f":"x",)",      R"("id":12,)",
          R"("op":"stats",)",   R"("beta":"-",)",   R"("regime":"crash",)",
          R"("crash_times":1,)", R"("\u0066":3,)",   R"("window_hi":" 5",)",
          R"("fault_p":[],)",   R"("id":2.0,)",     R"("x":{"y":[]},)"};
      if (out.front() == '{') out.insert(1, pick(rng, kDupes));
      break;
    }
    case 5: {  // pad around a separator
      const std::size_t sep = out.find_first_of(",:", at);
      if (sep != std::string::npos) out.insert(sep, " \t");
      break;
    }
    default: {  // append a duplicate member at the end
      static const std::vector<std::string> kTails = {
          R"(,"n":4})", R"(,"op":"cr"})", R"(,"id":-1})",
          R"(,"crash_times":[1]})"};
      if (out.back() == '}') {
        out.pop_back();
        out += pick(rng, kTails);
      }
      break;
    }
  }
  return out;
}

TEST(WireDecodeOracle, RequestsMatchTheTreeDecoder) {
  SplitMix64 rng(0x0DEC0DE5ULL);
  std::vector<std::string> corpus = base_requests(rng);
  const std::vector<std::string> crafted = crafted_requests();
  corpus.insert(corpus.end(), crafted.begin(), crafted.end());
  const std::size_t seeds = corpus.size();
  for (int round = 0; round < 24; ++round) {
    for (std::size_t i = 0; i < seeds; ++i) {
      std::string line = mutate(corpus[i], rng);
      if (round % 3 == 2) line = mutate(line, rng);
      corpus.push_back(std::move(line));
    }
  }
  ASSERT_GE(corpus.size(), 20000u);

  std::size_t accepted = 0;
  for (const std::string& line : corpus) {
    const Decoded want = decode_with(ref_parse_request, line);
    const Decoded got = decode_with(
        [](const std::string& text) { return parse_request(text); }, line);
    const std::string diff = difference(want, got);
    ASSERT_EQ(diff, "") << "line: " << line;
    ASSERT_EQ(peek_request_id(line), ref_peek_request_id(line))
        << "line: " << line;
    if (!want.threw) ++accepted;
  }
  // The corpus exercises both halves: accepted and refused lines.
  EXPECT_GT(accepted, corpus.size() / 10);
  EXPECT_LT(accepted, corpus.size() - corpus.size() / 10);
}

// ---- the client's response classification ----

/// One scripted connection per entry: each yields its bytes once, then
/// times out.
class ScriptTransport final : public ClientTransport {
 public:
  explicit ScriptTransport(std::vector<std::string> connections)
      : connections_(std::move(connections)) {}
  bool connect() override {
    if (next_ >= connections_.size()) return false;
    pending_ = connections_[next_++];
    connected_ = true;
    return true;
  }
  [[nodiscard]] bool connected() const override { return connected_; }
  bool send_bytes(const std::string& /*data*/) override { return connected_; }
  ReadStatus read_some(std::string& out, int /*timeout_ms*/) override {
    if (!connected_) return ReadStatus::kClosed;
    if (pending_.empty()) return ReadStatus::kTimeout;
    out += pending_;
    pending_.clear();
    return ReadStatus::kData;
  }
  void disconnect() override { connected_ = false; }

 private:
  std::vector<std::string> connections_;
  std::string pending_;
  std::size_t next_ = 0;
  bool connected_ = false;
};

/// What call_line returns when each connection delivers its bytes and
/// then goes silent, classified by ref_classify.
ClientResult ref_outcome(const std::vector<std::string>& connections,
                         const long long expected_id,
                         const int max_attempts) {
  ClientResult result;
  std::string last_failure = "no attempt made";
  bool timed_out = false;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result.attempts = attempt;
    const std::size_t index = static_cast<std::size_t>(attempt - 1);
    if (index >= connections.size()) {
      last_failure = "connect failed";
      timed_out = false;
      continue;
    }
    if (attempt > 1) ++result.reconnects;
    const std::string& bytes = connections[index];
    bool decided = false;
    std::size_t start = 0;
    for (std::size_t newline = bytes.find('\n');
         newline != std::string::npos; newline = bytes.find('\n', start)) {
      const std::string line = bytes.substr(start, newline - start);
      start = newline + 1;
      if (line.empty()) continue;
      const RefReply reply = ref_classify(line, expected_id);
      if (reply == RefReply::kAnswer) {
        result.ok = true;
        result.response = line;
        return result;
      }
      last_failure = reply == RefReply::kForeign
                         ? "damaged or foreign response frame"
                         : "server shed the request (overloaded/draining)";
      timed_out = false;
      decided = true;
      break;
    }
    if (!decided) {
      last_failure = "deadline exceeded waiting for response";
      timed_out = true;
    }
  }
  result.timed_out = timed_out;
  result.error = "client: " + std::to_string(result.attempts) +
                 " attempt(s) exhausted; last failure: " + last_failure;
  return result;
}

std::vector<std::string> base_responses(const long long id) {
  std::vector<std::string> lines;
  const std::string prefix = "{\"id\":" + std::to_string(id);
  for (const std::string& golden : golden_lines(true)) {
    // Re-key each golden response to `id`.
    const std::size_t comma = golden.find(',');
    lines.push_back(prefix + golden.substr(comma));
  }
  lines.push_back(render_error(id, "overloaded"));
  lines.push_back(render_error(id, "draining: server is shutting down"));
  lines.push_back(render_error(id, "svc: query needs f >= 1"));
  lines.push_back(render_error(0, "json: unexpected end of input"));
  lines.push_back(render_error(id + 1, "overloaded"));
  lines.push_back(prefix + R"(,"ok":false,"error":"overloaded "})");
  lines.push_back(prefix + R"(,"ok":false,"error":"drain"})");
  lines.push_back(prefix + R"(,"ok":false,"error":"\u006fverloaded"})");
  lines.push_back(prefix + R"(,"ok":false,"error":"draining\n"})");
  lines.push_back(prefix + R"(,"ok":false,"error":7})");
  lines.push_back(prefix + R"(,"ok":false})");
  lines.push_back(prefix + R"(,"ok":"false","error":"overloaded"})");
  lines.push_back(prefix + R"(,"ok":null})");
  lines.push_back(prefix + R"(,"ok":false,"ok":true,"error":"overloaded"})");
  lines.push_back(prefix + R"(,"ok":true,"ok":false,"error":"overloaded"})");
  lines.push_back(prefix + R"(,"error":"overloaded","ok":false,"error":"x"})");
  lines.push_back(prefix + R"(,"id":0,"ok":true})");
  lines.push_back(R"({"id":0,"id":)" + std::to_string(id) + R"(,"ok":true})");
  lines.push_back(R"({"\u0069d":)" + std::to_string(id) + R"(,"ok":true})");
  lines.push_back(R"({"id":)" + std::to_string(id) + R"(.0,"ok":true})");
  lines.push_back(R"({"id":"7","ok":true})");
  lines.push_back(R"({"ok":true})");
  lines.push_back(R"([{"id":7,"ok":true}])");
  lines.push_back(prefix + R"(,"ok":true,"deep":)" + nested(64) + "}");
  lines.push_back(prefix + R"(,"ok":true,"deep":)" + nested(65) + "}");
  return lines;
}

TEST(WireDecodeOracle, ClientClassificationMatchesTheTreeDecoder) {
  constexpr long long kId = 7;
  const std::string request = render_request(kId, CrQuery{});
  SplitMix64 rng(0xC1A55ULL);
  const std::vector<std::string> base = base_responses(kId);
  std::vector<std::string> responses = base;
  for (int round = 0; round < 60; ++round) {
    for (const std::string& line : base) {
      responses.push_back(mutate(line, rng));
    }
  }
  std::size_t answered = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    // Two connections: the line under test, then (for a retry) another
    // line from the corpus, sometimes two lines in one read.
    std::vector<std::string> script = {responses[i] + "\n"};
    const std::string& next = responses[rng.next() % responses.size()];
    script.push_back(rng.chance(0.3L) ? responses[i] + "\n" + next + "\n"
                                      : next + "\n");
    ClientOptions options;
    options.sleep_on_backoff = false;
    options.max_attempts = 2 + static_cast<int>(rng.next() % 2);
    const ClientResult want = ref_outcome(script, kId, options.max_attempts);
    QueryClient client(options, std::make_unique<ScriptTransport>(script));
    const ClientResult got = client.call_line(request);
    ASSERT_EQ(got.ok, want.ok) << "response: " << responses[i];
    ASSERT_EQ(got.attempts, want.attempts) << "response: " << responses[i];
    ASSERT_EQ(got.reconnects, want.reconnects) << "response: " << responses[i];
    ASSERT_EQ(got.timed_out, want.timed_out) << "response: " << responses[i];
    ASSERT_EQ(got.error, want.error) << "response: " << responses[i];
    ASSERT_EQ(got.response, want.response) << "response: " << responses[i];
    if (got.ok) ++answered;
  }
  EXPECT_GT(answered, responses.size() / 10);
  EXPECT_LT(answered, responses.size() - responses.size() / 10);
}

TEST(WireDecodeOracle, ClientRequestIdMatchesTheTreeDecoder) {
  // call_line reads the request's id before it sends anything: a line
  // whose id cannot be read fails with the tree decoder's message.
  SplitMix64 rng(0x1D5ULL);
  std::vector<std::string> lines = crafted_requests();
  const std::size_t seeds = lines.size();
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < seeds; ++i) {
      lines.push_back(mutate(lines[i], rng));
    }
  }
  for (const std::string& line : lines) {
    std::string want_error;
    try {
      const JsonValue doc = parse_json(line);
      expects(doc.is_object(), "client: request must be a JSON object");
      if (const JsonValue* id = doc.find("id"); id != nullptr) {
        (void)id->as_int();
      }
    } catch (const std::exception& failure) {
      want_error = "client: bad request line: " + message_of(failure);
    }
    ClientOptions options;
    options.sleep_on_backoff = false;
    options.max_attempts = 1;
    QueryClient client(options, std::make_unique<ScriptTransport>(
                                    std::vector<std::string>{}));
    const ClientResult got = client.call_line(line);
    if (want_error.empty()) {
      ASSERT_EQ(got.attempts, 1) << "line: " << line;
      ASSERT_EQ(got.error,
                "client: 1 attempt(s) exhausted; last failure: connect failed")
          << "line: " << line;
    } else {
      // The client's text is what() (message plus location): compare
      // the message part.
      ASSERT_EQ(got.attempts, 0) << "line: " << line;
      ASSERT_EQ(got.error.substr(0, want_error.size()), want_error)
          << "line: " << line;
    }
  }
}

}  // namespace
}  // namespace svc
}  // namespace linesearch
