// svc/server: the NDJSON wire protocol, the golden request/response
// corpus, and the socket lifecycle (serve / connect / drain).  The
// golden fixture pins the response BYTES for a corpus spanning all
// three fault regimes — regenerate deliberately with
//
//   LS_SVC_GOLDEN_REGEN=1 tests/svc_test --gtest_filter='SvcGolden*'
//
// Responses carry only values (no timestamps, no cache provenance), so
// the replay must be byte-identical on every machine, cache state, and
// thread count.
#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/snapshot.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace svc {
namespace {

using verify::value_identical;

TEST(WireRequestParse, AppliesDefaultsAndOverrides) {
  const WireRequest defaults = parse_request(R"({"op": "cr"})");
  EXPECT_EQ(defaults.id, 0);
  EXPECT_EQ(defaults.query.n, 2);
  EXPECT_EQ(defaults.query.f, 1);
  EXPECT_TRUE(std::isnan(defaults.query.beta));
  EXPECT_EQ(defaults.query.regime, FaultRegime::kNone);

  const WireRequest full = parse_request(
      R"({"id": 7, "op": "cr", "n": 5, "f": 2, "beta": 2.5,)"
      R"( "window_lo": 2, "window_hi": 32, "interior_samples": 3,)"
      R"( "regime": "byzantine"})");
  EXPECT_EQ(full.id, 7);
  EXPECT_EQ(full.query.n, 5);
  EXPECT_EQ(full.query.f, 2);
  EXPECT_TRUE(value_identical(full.query.beta, 2.5L));
  EXPECT_TRUE(value_identical(full.query.window_hi, 32.0L));
  EXPECT_EQ(full.query.interior_samples, 3);
  EXPECT_EQ(full.query.regime, FaultRegime::kByzantine);

  const WireRequest crash = parse_request(
      R"({"op": "cr", "n": 3, "f": 1, "regime": "crash",)"
      R"( "crash_times": [2.0, "inf", "inf"]})");
  EXPECT_EQ(crash.query.regime, FaultRegime::kCrash);
  ASSERT_EQ(crash.query.crash_times.size(), 3u);
  EXPECT_TRUE(std::isinf(crash.query.crash_times[1]));
}

/// The message parse_request throws, without the " [file:line in
/// function]" location suffix of what(); "(no error)" if it parses.
std::string request_message(const std::string& line) {
  try {
    (void)parse_request(line);
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    return what.substr(0, what.find(" ["));
  }
  return "(no error)";
}

TEST(WireRequestParse, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_request("not json"), PreconditionError);
  EXPECT_THROW((void)parse_request(R"({"n": 3})"), PreconditionError);
  EXPECT_THROW((void)parse_request(R"({"op": "shutdown"})"),
               PreconditionError);
  EXPECT_THROW((void)parse_request(R"({"op": "cr", "regime": "weird"})"),
               PreconditionError);

  // Error responses carry these texts on the wire: pin each byte.
  EXPECT_EQ(request_message("not json"), "json: bad literal at offset 0");
  EXPECT_EQ(request_message(R"({"op": "cr"} x)"),
            "json: trailing garbage at offset 13");
  EXPECT_EQ(request_message(R"({"op" "cr"})"),
            "json: expected ':' at offset 5");
  EXPECT_EQ(request_message("{\"op\": \"c\x02\"}"),
            "json: raw control character in string at offset 10");
  EXPECT_EQ(request_message(R"({"op": "c\q"})"),
            "json: bad escape at offset 11");
  EXPECT_EQ(request_message(R"({"op": "\u00zz"})"),
            "json: bad \\u digit at offset 13");
  EXPECT_EQ(request_message(R"({"op": "\udc00"})"),
            "json: surrogate escapes unsupported at offset 14");
  EXPECT_EQ(request_message(R"({"op": "cr", "n": -})"),
            "json: expected digit at offset 19");
  EXPECT_EQ(request_message(R"({"op": "cr)"), "json: unterminated string");
  EXPECT_EQ(request_message(R"({"n": 3})"), "json: missing key \"op\"");
  EXPECT_EQ(request_message(R"({"op": "cr", "n": 2.5})"),
            "json: number is not an integer: 2.5");
  EXPECT_EQ(request_message(R"({"op": "cr", "f": 3000000000})"),
            "svc: field 'f' out of int range");
  EXPECT_EQ(request_message(R"({"op": "shutdown"})"),
            "svc: unknown op 'shutdown' (valid: cr)");
  EXPECT_EQ(request_message(R"({"op": "cr", "beta": "2.5x"})"),
            "csv: malformed number '2.5x'");
  EXPECT_EQ(request_message(R"({"op": "cr", "regime": "weird"})"),
            "svc: unknown fault regime 'weird' "
            "(valid: none, byzantine, crash, probabilistic)");
}

TEST(QueryServerHandleLine, RejectsOutOfRangeIdsInsteadOfClamping) {
  // An id strtoll would saturate is not echoed as a clamped value the
  // client never sent: no id can be read from the line, so the error
  // carries id 0.
  QueryServer server;
  EXPECT_EQ(server.handle_line(R"({"id":99999999999999999999,"op":"cr",)"
                               R"("n":3,"f":1,"window_hi":16})"),
            R"({"id":0,"ok":false,"error":"json: integer out of range: )"
            R"(99999999999999999999"})");
  EXPECT_EQ(server.handle_line(R"({"id":-99999999999999999999,"op":"cr",)"
                               R"("n":3,"f":1,"window_hi":16})"),
            R"({"id":0,"ok":false,"error":"json: integer out of range: )"
            R"(-99999999999999999999"})");
  EXPECT_EQ(request_message(R"({"op": "cr", "n": 99999999999999999999})"),
            "json: integer out of range: 99999999999999999999");
  EXPECT_EQ(peek_request_id(R"({"id":9223372036854775808,"op":"cr"})"), 0);
}

TEST(QueryServerHandleLine, MatchesTheDirectPath) {
  QueryServer server;
  const std::string request =
      R"({"id": 3, "op": "cr", "n": 5, "f": 2, "window_hi": 16})";
  const std::string response = server.handle_line(request);
  CrQuery query;
  query.n = 5;
  query.f = 2;
  query.window_hi = 16;
  EXPECT_EQ(response, render_response(3, evaluate_query_direct(query)));
  // The warm (cached) pass must be byte-identical — the wire-level
  // determinism contract.
  EXPECT_EQ(server.handle_line(request), response);
  EXPECT_GT(server.service().stats().cache_hits, 0u);
}

TEST(QueryServerHandleLine, ErrorsNeverThrowAndNameTheProblem) {
  QueryServer server;
  const std::string malformed = server.handle_line("garbage");
  EXPECT_NE(malformed.find("\"ok\":false"), std::string::npos) << malformed;
  const std::string invalid =
      server.handle_line(R"({"id": 9, "op": "cr", "n": 4, "f": 1})");
  EXPECT_NE(invalid.find("\"id\":9"), std::string::npos) << invalid;
  EXPECT_NE(invalid.find("\"ok\":false"), std::string::npos) << invalid;
  EXPECT_EQ(server.stats().errors, 2u);
  EXPECT_EQ(server.stats().requests, 2u);
}

TEST(QueryServerHandleLine, RejectsAtTheAdmissionBound) {
  QueryServerOptions options;
  options.max_inflight = 0;  // every request is over the bound
  QueryServer server(options);
  const std::string response =
      server.handle_line(R"({"op": "cr", "n": 3, "f": 1})");
  EXPECT_NE(response.find("overloaded"), std::string::npos) << response;
  EXPECT_EQ(server.stats().rejected, 1u);
}

/// The golden corpus: one request per line, spanning defaults, explicit
/// beta, both infeasible and feasible Byzantine queries (the infeasible
/// one pins the non-finite codec on the wire), a crash schedule, a
/// canonicalization error, and three probabilistic queries — a
/// convergent p, a past-threshold p whose divergent expected CR pins
/// the "inf" codec on the wire, and an out-of-range fault_p error.
std::vector<std::string> golden_requests() {
  return {
      R"({"id": 1, "op": "cr"})",
      R"({"id": 2, "op": "cr", "n": 5, "f": 2, "window_hi": 16})",
      R"({"id": 3, "op": "cr", "n": 5, "f": 2, "beta": 2.5, "window_hi": 16})",
      R"({"id": 4, "op": "cr", "n": 5, "f": 2, "regime": "byzantine", "window_hi": 16})",
      R"({"id": 5, "op": "cr", "n": 4, "f": 2, "regime": "byzantine", "window_hi": 16})",
      R"({"id": 6, "op": "cr", "n": 3, "f": 1, "regime": "crash", "crash_times": [2.0, "inf", "inf"], "window_hi": 16})",
      R"({"id": 7, "op": "cr", "n": 4, "f": 1})",
      R"({"id": 8, "op": "cr", "n": 5, "f": 2, "regime": "probabilistic", "fault_p": 0.25, "window_hi": 16})",
      R"({"id": 9, "op": "cr", "n": 3, "f": 1, "regime": "probabilistic", "fault_p": 0.8, "window_hi": 16})",
      R"({"id": 10, "op": "cr", "n": 3, "f": 1, "regime": "probabilistic", "fault_p": 1.5, "window_hi": 16})",
  };
}

std::string serialize_golden(const std::vector<std::string>& requests,
                             const std::vector<std::string>& responses) {
  std::ostringstream out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out << requests[i] << '\n' << responses[i] << '\n';
  }
  return out.str();
}

TEST(SvcGoldenWire, CorpusReplayIsByteIdentical) {
  const std::vector<std::string> requests = golden_requests();
  QueryServer server;
  std::vector<std::string> responses;
  responses.reserve(requests.size());
  for (const std::string& request : requests) {
    responses.push_back(server.handle_line(request));
  }
  // A second, warm replay through the SAME server must not change a
  // byte, and a fresh server must agree with the warm one.
  QueryServer fresh;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(server.handle_line(requests[i]), responses[i]) << requests[i];
    EXPECT_EQ(fresh.handle_line(requests[i]), responses[i]) << requests[i];
  }
  const std::string actual = serialize_golden(requests, responses);

  const std::string path = LS_SVC_GOLDEN_FIXTURE;
  if (std::getenv("LS_SVC_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " — regenerate with LS_SVC_GOLDEN_REGEN=1";
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), actual)
      << "wire responses diverged from the committed corpus; if the "
         "change is intended, regenerate with LS_SVC_GOLDEN_REGEN=1";
}

/// The golden requests that answer ok: (request line, canonical query,
/// direct result).
struct GoldenHit {
  std::string line;
  CrQuery query;
  QueryResult direct;
};

std::vector<GoldenHit> golden_hits() {
  std::vector<GoldenHit> hits;
  for (const std::string& line : golden_requests()) {
    try {
      const CrQuery query = canonicalize_query(parse_request(line).query);
      hits.push_back({line, query, evaluate_query_direct(query)});
    } catch (const Error&) {
      // An error line of the corpus: nothing is cached for it.
    }
  }
  return hits;
}

/// Ids a hit must splice verbatim: small, past 32 bits, and negative.
constexpr long long kHitIds[] = {1, 1LL << 40, -7};

TEST(SvcHitPath, GoldenHitsSpliceEveryIdOntoTheCachedTail) {
  const std::vector<GoldenHit> hits = golden_hits();
  ASSERT_EQ(hits.size(), 8u);
  for (const GoldenHit& hit : hits) {
    QueryServer server;
    const long long golden_id = parse_request(hit.line).id;
    EXPECT_EQ(server.handle_line(hit.line),
              render_response(golden_id, hit.direct));
    for (const long long id : kHitIds) {
      EXPECT_EQ(server.handle_line(render_request(id, hit.query)),
                render_response(id, hit.direct))
          << hit.line << " id=" << id;
    }
    const QueryService::Stats stats = server.service().stats();
    EXPECT_EQ(stats.evaluations, 1u) << hit.line;
    EXPECT_EQ(stats.cache_hits, std::size(kHitIds)) << hit.line;
  }
}

TEST(SvcHitPath, CoalescedFollowersSpliceTheirOwnIds) {
  // Four callers race each golden query into a fresh server: one leads,
  // the others hit or follow it, and each response carries its own id.
  // Whether a follower forms is up to the scheduler, so rounds repeat
  // until at least one did.
  const std::vector<GoldenHit> hits = golden_hits();
  constexpr long long kIds[] = {1, 1LL << 40, -7, 2};
  std::atomic<int> mismatches{0};
  std::uint64_t coalesced = 0;
  for (int round = 0; round < 200 && coalesced == 0; ++round) {
    for (const GoldenHit& hit : hits) {
      QueryServer server;
      std::latch start(std::size(kIds));
      std::vector<std::thread> callers;
      for (const long long id : kIds) {
        callers.emplace_back([&server, &start, &hit, &mismatches, id] {
          const std::string request = render_request(id, hit.query);
          start.arrive_and_wait();
          if (server.handle_line(request) !=
              render_response(id, hit.direct)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& caller : callers) caller.join();
      coalesced += server.service().stats().coalesced;
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(coalesced, 0u);
}

TEST(SvcHitPath, SnapshotRestoredHitsAreByteIdentical) {
  // Export spells the binary keys as decimal query_keys; import parses
  // them back and renders each tail, so the restored server answers the
  // corpus from its cache with the original bytes.
  const std::vector<std::string> requests = golden_requests();
  QueryServer original;
  std::vector<std::string> responses;
  for (const std::string& request : requests) {
    responses.push_back(original.handle_line(request));
  }
  const std::string path =
      "/tmp/ls_svc_hit_snapshot_" + std::to_string(::getpid()) + ".snap";
  (void)save_snapshot(original.service(), path);
  QueryServer restored;
  const SnapshotLoadReport loaded = load_snapshot(restored.service(), path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.entries, golden_hits().size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(restored.handle_line(requests[i]), responses[i])
        << requests[i];
  }
  EXPECT_EQ(restored.service().stats().evaluations, 0u);
  EXPECT_EQ(restored.service().stats().cache_hits, loaded.entries);
}

/// Minimal blocking NDJSON client for the socket tests.
class WireClient {
 public:
  explicit WireClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, path.c_str(),
                 sizeof(address.sun_path) - 1);
    // The server binds asynchronously; retry briefly.
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)) == 0) {
        connected_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ~WireClient() { close(); }
  [[nodiscard]] bool connected() const { return connected_; }
  [[nodiscard]] int fd() const { return fd_; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  [[nodiscard]] std::string round_trip(const std::string& line) {
    if (!send_raw(line + "\n")) return "";
    return read_line();
  }

  bool send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote =
          ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (wrote <= 0) return false;
      sent += static_cast<std::size_t>(wrote);
    }
    return true;
  }

  [[nodiscard]] std::string read_line() {
    std::string response;
    char byte = 0;
    while (::read(fd_, &byte, 1) == 1) {
      if (byte == '\n') break;
      response.push_back(byte);
    }
    return response;
  }

  /// Every remaining response line until the server closes the socket.
  [[nodiscard]] std::vector<std::string> read_lines_until_eof() {
    std::vector<std::string> lines;
    std::string current;
    char byte = 0;
    while (::read(fd_, &byte, 1) == 1) {
      if (byte == '\n') {
        lines.push_back(current);
        current.clear();
      } else {
        current.push_back(byte);
      }
    }
    if (!current.empty()) lines.push_back(current);
    return lines;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(QueryServerSocket, ServesAndDrainsCleanly) {
  const std::string path = "/tmp/ls_svc_test_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.threads = 2;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  {
    WireClient client(path);
    ASSERT_TRUE(client.connected()) << "server never bound " << path;
    const std::string request =
        R"({"id": 11, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
    const std::string over_socket = client.round_trip(request);
    // The socket path and the in-process path are the same bytes.
    QueryServer reference;
    EXPECT_EQ(over_socket, reference.handle_line(request));
    // Errors keep the connection open.
    const std::string error = client.round_trip("garbage");
    EXPECT_NE(error.find("\"ok\":false"), std::string::npos) << error;
    const std::string again = client.round_trip(request);
    EXPECT_EQ(again, over_socket);
  }

  server.stop();
  accept_loop.join();
  EXPECT_GE(server.stats().connections, 1u);
  EXPECT_EQ(server.stats().requests, 3u);
  // Drain removed the socket file.
  std::ifstream gone(path);
  EXPECT_FALSE(gone.good());
}

/// The drain contract's reject half, deterministically: one visible
/// "draining" error per COMPLETE pending line, ids echoed whenever the
/// line parses, blank lines skipped, a trailing fragment (no newline =
/// never a request) ignored.
TEST(QueryServerHardening, DrainRejectLinesAnswerEveryPendingLine) {
  EXPECT_TRUE(drain_reject_lines("").empty());
  EXPECT_TRUE(drain_reject_lines("no newline yet").empty());
  const std::vector<std::string> rejections = drain_reject_lines(
      "{\"id\": 4, \"op\": \"cr\"}\n\nnot json\n{\"id\": 6}\ntail fragment");
  ASSERT_EQ(rejections.size(), 3u);
  const std::string reason = "draining: server is shutting down";
  EXPECT_EQ(rejections[0], render_error(4, reason));
  EXPECT_EQ(rejections[1], render_error(0, reason));
  EXPECT_EQ(rejections[2], render_error(6, reason));
}

/// Regression: a peer that closes without reading used to raise SIGPIPE
/// from the response write and kill the whole process.  MSG_NOSIGNAL in
/// write_line turns that into a counted EPIPE; the server — and this
/// very test binary — must survive and keep serving.
TEST(QueryServerSocket, SurvivesAPeerThatClosesWithoutReading) {
  const std::string path = "/tmp/ls_svc_epipe_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.threads = 2;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  {
    WireClient rude(path);
    ASSERT_TRUE(rude.connected()) << "server never bound " << path;
    // Shut the read half BEFORE sending: on AF_UNIX the server's
    // response send then fails with EPIPE however fast the evaluation
    // is, so the write failure no longer races the peer's close.
    ASSERT_EQ(::shutdown(rude.fd(), SHUT_RD), 0);
    ASSERT_TRUE(rude.send_raw(
        R"({"id": 1, "op": "cr", "n": 6, "f": 2, "window_hi": 1024})"
        "\n"));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().write_failures == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }  // closed without reading a byte

  WireClient polite(path);
  ASSERT_TRUE(polite.connected());
  const std::string request =
      R"({"id": 2, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  QueryServer reference;
  EXPECT_EQ(polite.round_trip(request), reference.handle_line(request));

  server.stop();
  accept_loop.join();
  EXPECT_GE(server.stats().connections, 2u);
  EXPECT_GE(server.stats().write_failures, 1u);
}

/// The write deadline: a peer that keeps sending requests but never
/// reads fills the server's socket buffer, so a response write stalls.
/// After write_timeout_ms the server gives up on that connection and
/// counts a write failure instead of parking a worker, and stop() still
/// drains promptly.
TEST(QueryServerSocket, WriteDeadlineDropsAPeerThatNeverReads) {
  const std::string path = "/tmp/ls_svc_wdeadline_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.threads = 2;
  options.write_timeout_ms = 50;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient hoarder(path);
  ASSERT_TRUE(hoarder.connected()) << "server never bound " << path;
  std::string burst;
  for (int id = 1; id <= 64; ++id) {
    burst += R"({"id": )" + std::to_string(id) +
             R"(, "op": "cr", "n": 3, "f": 1, "window_hi": 8})" + "\n";
  }
  // Non-blocking sends, so this thread never stalls on its own full
  // buffer; keep feeding requests until the server gives up on us.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().write_failures == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    const ssize_t sent = ::send(hoarder.fd(), burst.data(), burst.size(),
                                MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool dropped = server.stats().write_failures >= 1;
  EXPECT_TRUE(dropped) << "the stalled write never hit its deadline";
  // Without a working deadline the worker stays parked in send(); free
  // it so the test ends with a failure instead of hanging.
  if (!dropped) hoarder.close();

  const auto stop_at = std::chrono::steady_clock::now();
  server.stop();
  accept_loop.join();
  const auto drain_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - stop_at)
          .count();
  EXPECT_LT(drain_ms, 2000) << "stop() did not drain promptly";
}

TEST(QueryServerSocket, OversizedFrameIsRejectedVisiblyThenClosed) {
  const std::string path = "/tmp/ls_svc_frame_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.max_request_bytes = 64;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  {
    WireClient client(path);
    ASSERT_TRUE(client.connected()) << "server never bound " << path;
    // A newline-free line that outgrew the bound can only get worse:
    // the server answers with a structured rejection, then closes.
    ASSERT_TRUE(client.send_raw(std::string(256, 'a')));
    const std::vector<std::string> lines = client.read_lines_until_eof();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("malformed: request line exceeds 64 bytes"),
              std::string::npos)
        << lines[0];
  }

  // The rejection closed ONE connection, not the server.
  WireClient next(path);
  ASSERT_TRUE(next.connected());
  const std::string request =
      R"({"id": 3, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(next.round_trip(request).find("\"ok\":true"),
            std::string::npos);

  server.stop();
  accept_loop.join();
  EXPECT_EQ(server.stats().frame_rejected, 1u);
}

TEST(QueryServerSocket, IdleConnectionsExpireEvenWhileTrickling) {
  const std::string path = "/tmp/ls_svc_idle_to_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.idle_timeout_ms = 50;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient client(path);
  ASSERT_TRUE(client.connected()) << "server never bound " << path;
  // A complete request resets the idle clock...
  const std::string request =
      R"({"id": 4, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(client.round_trip(request).find("\"ok\":true"),
            std::string::npos);
  // ...but a dribbled partial line does NOT: the slowloris pattern
  // expires exactly like silence, with a structured timeout then close.
  ASSERT_TRUE(client.send_raw("{\"id\": 5"));
  const std::vector<std::string> lines = client.read_lines_until_eof();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("timeout: connection idle beyond 50 ms"),
            std::string::npos)
      << lines[0];

  server.stop();
  accept_loop.join();
  EXPECT_EQ(server.stats().idle_closed, 1u);
}

/// A peer that half-closes right after its request: the EOF lands while
/// the server spins on the socket (svc/socket_io), so the spin must
/// report it and the connection task must close the socket at once —
/// not when the (here one-minute) idle deadline would have.
TEST(QueryServerSocket, PeerCloseDuringTheSpinEndsTheConnection) {
  const std::string path = "/tmp/ls_svc_spin_eof_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.idle_timeout_ms = 60000;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient client(path);
  ASSERT_TRUE(client.connected()) << "server never bound " << path;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.send_raw(
      R"({"id": 7, "op": "cr", "n": 3, "f": 1, "window_hi": 8})"
      "\n"));
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  const std::vector<std::string> lines = client.read_lines_until_eof();
  const auto closed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_LT(closed_ms, 5000) << "the server kept the closed peer open";

  server.stop();
  accept_loop.join();
  EXPECT_EQ(server.stats().requests, 1u);
  EXPECT_EQ(server.stats().idle_closed, 0u);
}

/// Slowloris against the spin: a byte every few microseconds, never a
/// newline, so most bytes arrive while the server is still spinning on
/// the socket.  They are appended but are not progress, so the peer
/// expires at idle_timeout_ms with the structured timeout — not at the
/// frame bound, which is where it would end if stray bytes reset the
/// clock.
TEST(QueryServerSocket, BytesDuringTheSpinDoNotResetTheIdleClock) {
  const std::string path = "/tmp/ls_svc_spin_idle_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.idle_timeout_ms = 50;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient client(path);
  ASSERT_TRUE(client.connected()) << "server never bound " << path;
  std::atomic<bool> expired{false};
  std::thread trickle([&client, &expired] {
    while (!expired.load(std::memory_order_relaxed)) {
      if (::send(client.fd(), "x", 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
  });
  const std::vector<std::string> lines = client.read_lines_until_eof();
  expired.store(true, std::memory_order_relaxed);
  trickle.join();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("timeout: connection idle beyond 50 ms"),
            std::string::npos)
      << lines[0];

  server.stop();
  accept_loop.join();
  EXPECT_EQ(server.stats().idle_closed, 1u);
  EXPECT_EQ(server.stats().frame_rejected, 0u);
}

TEST(QueryServerSocket, GarbageBytesKeepTheConnectionAndServerAlive) {
  const std::string path = "/tmp/ls_svc_garbage_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServer server;
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient client(path);
  ASSERT_TRUE(client.connected()) << "server never bound " << path;
  // The chaos injector's whole garbage alphabet, framed as a line: a
  // structured parse error comes back and the connection stays open.
  ASSERT_TRUE(client.send_raw("\x01\x02\x03\x04\x05\x06\x07\n"));
  const std::string error = client.read_line();
  EXPECT_NE(error.find("\"ok\":false"), std::string::npos) << error;
  EXPECT_NE(error.find("\"id\":0"), std::string::npos) << error;
  const std::string request =
      R"({"id": 6, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(client.round_trip(request).find("\"ok\":true"),
            std::string::npos);

  server.stop();
  accept_loop.join();
}

/// The drain contract over a live socket: a burst already in the socket
/// when stop() lands is never silently dropped — every request draws
/// either its genuine answer or a visible "draining" rejection, the
/// counts reconcile, serve() returns, and the socket file is unlinked.
TEST(QueryServerSocket, DrainMidBurstAnswersOrRejectsEveryRequest) {
  const std::string path = "/tmp/ls_svc_burst_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.threads = 2;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient client(path);
  ASSERT_TRUE(client.connected()) << "server never bound " << path;
  const std::string warm =
      R"({"id": 1, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(client.round_trip(warm).find("\"ok\":true"),
            std::string::npos);

  // The burst is written BEFORE stop(), so the bytes are queued when the
  // server observes the flag: the drain owes each line a response.
  std::ostringstream burst;
  for (int id = 2; id <= 6; ++id) {
    burst << R"({"id": )" << id
          << R"(, "op": "cr", "n": 3, "f": 1, "window_hi": 8})" << "\n";
  }
  ASSERT_TRUE(client.send_raw(burst.str()));
  server.stop();
  const std::vector<std::string> responses = client.read_lines_until_eof();
  accept_loop.join();

  ASSERT_EQ(responses.size(), 5u);
  std::uint64_t drained = 0;
  for (const std::string& response : responses) {
    const bool answered =
        response.find("\"ok\":true") != std::string::npos;
    const bool rejected = response.find("draining") != std::string::npos;
    EXPECT_TRUE(answered || rejected) << response;
    if (rejected) ++drained;
  }
  EXPECT_EQ(server.stats().drain_rejected, drained);
  std::ifstream gone(path);
  EXPECT_FALSE(gone.good());
}

TEST(QueryServerSocket, StopWithoutConnectionsReturnsPromptly) {
  const std::string path = "/tmp/ls_svc_idle_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServer server;
  std::thread accept_loop([&server, &path] { server.serve(path); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  accept_loop.join();
  EXPECT_EQ(server.stats().connections, 0u);
}

}  // namespace
}  // namespace svc
}  // namespace linesearch
