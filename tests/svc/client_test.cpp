// svc/client: the resilient wire client.  The contract under test is
// the one the chaos differential pins — the client NEVER returns a
// wrong answer: every call ends in either the server's exact intended
// response bytes or a structured failure.  Scripted fake transports pin
// the retry/deadline/corruption-detection paths one at a time; the
// chaos loopback then hammers the whole loop across seeds.
#include "svc/client.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/chaos.hpp"
#include "svc/server.hpp"
#include "util/error.hpp"

namespace linesearch {
namespace svc {
namespace {

ClientOptions fast_options() {
  ClientOptions options;
  options.sleep_on_backoff = false;  // logical time in tests
  options.request_timeout_ms = 50;
  return options;
}

/// A transport whose every connection replays a scripted byte sequence.
/// Each inner vector is one connection's read results; an empty string
/// means "closed".
class ScriptedTransport final : public ClientTransport {
 public:
  explicit ScriptedTransport(std::vector<std::vector<std::string>> connections)
      : connections_(std::move(connections)) {}

  bool connect() override {
    if (next_connection_ >= connections_.size()) return false;
    reads_ = connections_[next_connection_++];
    next_read_ = 0;
    connected_ = true;
    return true;
  }
  [[nodiscard]] bool connected() const override { return connected_; }
  bool send_bytes(const std::string& data) override {
    sent_ += data;
    return connected_;
  }
  ReadStatus read_some(std::string& out, int /*timeout_ms*/) override {
    if (!connected_) return ReadStatus::kClosed;
    if (next_read_ >= reads_.size()) return ReadStatus::kTimeout;
    const std::string& chunk = reads_[next_read_++];
    if (chunk.empty()) {
      connected_ = false;
      return ReadStatus::kClosed;
    }
    out += chunk;
    return ReadStatus::kData;
  }
  void disconnect() override { connected_ = false; }

  [[nodiscard]] std::size_t connections_used() const {
    return next_connection_;
  }
  [[nodiscard]] const std::string& sent() const { return sent_; }

 private:
  std::vector<std::vector<std::string>> connections_;
  std::vector<std::string> reads_;
  std::size_t next_read_ = 0;
  std::size_t next_connection_ = 0;
  bool connected_ = false;
  std::string sent_;
};

QueryClient make_client(ClientOptions options,
                        std::vector<std::vector<std::string>> script) {
  return QueryClient(std::move(options), std::make_unique<ScriptedTransport>(
                                             std::move(script)));
}

TEST(RenderRequest, RoundTripsThroughTheServerParser) {
  CrQuery query;
  query.n = 5;
  query.f = 2;
  query.window_hi = 16;
  query.regime = FaultRegime::kCrash;
  query.crash_times = {2.0L, kInfinity, kInfinity, kInfinity, kInfinity};
  const std::string line = render_request(9, query);
  const WireRequest parsed = parse_request(line);
  EXPECT_EQ(parsed.id, 9);
  EXPECT_EQ(parsed.query.n, 5);
  EXPECT_EQ(parsed.query.f, 2);
  EXPECT_EQ(parsed.query.regime, FaultRegime::kCrash);
  ASSERT_EQ(parsed.query.crash_times.size(), 5u);
  EXPECT_EQ(query_key(parsed.query), query_key(query));
}

TEST(QueryClient, FirstTryDeliversTheExactResponseLine) {
  const std::string response = R"({"id":1,"ok":true,"feasible":true})";
  QueryClient client =
      make_client(fast_options(), {{response + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 1, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, response);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.reconnects, 0);
}

TEST(QueryClient, SplitFramesReassembleBeforeTheDeadline) {
  const std::string response = R"({"id":2,"ok":true,"feasible":true})";
  QueryClient client = make_client(
      fast_options(),
      {{response.substr(0, 7), response.substr(7) + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 2, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, response);
}

TEST(QueryClient, ZeroIdResponseIsProofOfADamagedFrameAndIsRetried) {
  // The server answers unparseable requests with id 0: to a client that
  // sent id 3, that response is provably not an answer to its intact
  // request — retry on a fresh connection, where the true answer waits.
  const std::string damaged = R"({"id":0,"ok":false,"error":"parse"})";
  const std::string good = R"({"id":3,"ok":true,"feasible":true})";
  QueryClient client = make_client(
      fast_options(), {{damaged + "\n"}, {good + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 3, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, good);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.reconnects, 1);
}

TEST(QueryClient, GarbageLinesNeverSurfaceAsAnswers) {
  const std::string good = R"({"id":4,"ok":true,"feasible":true})";
  QueryClient client = make_client(
      fast_options(),
      {{"\x01\x02\x03\n"}, {"{\"id\":4,\"ok\"\n"}, {good + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 4, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, good);
  EXPECT_EQ(result.attempts, 3);
}

TEST(QueryClient, RetryableServerErrorsAreRetriedOtherErrorsAreFinal) {
  const std::string overloaded =
      R"({"id":5,"ok":false,"error":"overloaded"})";
  const std::string draining =
      R"({"id":5,"ok":false,"error":"draining: server is shutting down"})";
  const std::string genuine =
      R"({"id":5,"ok":false,"error":"svc: bad query"})";
  QueryClient client = make_client(
      fast_options(),
      {{overloaded + "\n"}, {draining + "\n"}, {genuine + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 5, "op": "cr"})");
  // The genuine server-side rejection IS the authoritative answer.
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, genuine);
  EXPECT_EQ(result.attempts, 3);
}

TEST(QueryClient, ExhaustedAttemptsFailStructurallyNeverWrongly) {
  ClientOptions options = fast_options();
  options.max_attempts = 3;
  options.request_timeout_ms = 5;
  QueryClient client = make_client(options, {{}, {}, {}});
  const ClientResult result =
      client.call_line(R"({"id": 6, "op": "cr"})");
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_NE(result.error.find("attempt(s) exhausted"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.response.empty());
}

TEST(QueryClient, ClosedConnectionsReconnectUntilTheScriptRunsOut) {
  const std::string good = R"({"id":7,"ok":true,"feasible":true})";
  QueryClient client = make_client(
      fast_options(), {{""}, {""}, {good + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 7, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(result.reconnects, 2);
}

TEST(QueryClient, RejectsUnparseableRequestLinesAndBadIds) {
  QueryClient client = make_client(fast_options(), {});
  const ClientResult result = client.call_line("not json");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("bad request line"), std::string::npos);

  QueryClient typed = make_client(fast_options(), {});
  EXPECT_THROW((void)typed.call(0, CrQuery{}), Error);
}

/// The spin-then-park read on a socket pair: what is already queued
/// comes back from the spin, a silent peer times out, and a peer that
/// closed reads as closed.
TEST(SpinThenPark, ReportsDataTimeoutAndClose) {
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
  std::string out;
  ASSERT_EQ(::send(ends[1], "ab", 2, MSG_NOSIGNAL), 2);
  EXPECT_EQ(read_spin_then_park(ends[0], out, 1000), ReadStatus::kData);
  EXPECT_EQ(out, "ab");
  EXPECT_EQ(read_spin_then_park(ends[0], out, 5), ReadStatus::kTimeout);
  ::close(ends[1]);
  EXPECT_EQ(read_spin_then_park(ends[0], out, 1000), ReadStatus::kClosed);
  EXPECT_EQ(out, "ab");
  ::close(ends[0]);
}

/// Bytes written long after the spin budget ran out are still read:
/// the reader has parked in poll() by then, and poll() wakes it.
TEST(SpinThenPark, BytesAfterTheBudgetArriveThroughPoll) {
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
  std::thread late([writer = ends[1]] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)::send(writer, "late", 4, MSG_NOSIGNAL);
  });
  std::string out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(read_spin_then_park(ends[0], out, 5000), ReadStatus::kData);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20) - kReadSpinBudget);
  EXPECT_EQ(out, "late");
  late.join();
  ::close(ends[0]);
  ::close(ends[1]);
}

/// A one-connection AF_UNIX peer for SocketTransport: it accepts, reads
/// one request line, hands the connected socket to `script`, then
/// closes it.
class ScriptedPeer {
 public:
  ScriptedPeer(const std::string& path, std::function<void(int)> script)
      : path_(path) {
    listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, path.c_str(),
                 sizeof(address.sun_path) - 1);
    ::unlink(path.c_str());
    bound_ = ::bind(listener_, reinterpret_cast<const sockaddr*>(&address),
                    sizeof address) == 0 &&
             ::listen(listener_, 1) == 0;
    if (!bound_) return;
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;
      char byte = 0;
      while (::read(fd, &byte, 1) == 1 && byte != '\n') {
      }
      script(fd);
      ::close(fd);
    });
  }
  ~ScriptedPeer() {
    finish();
    ::close(listener_);
    ::unlink(path_.c_str());
  }
  [[nodiscard]] bool bound() const { return bound_; }
  /// Wait until the script has run and the connection is closed.
  void finish() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::string path_;
  int listener_ = -1;
  bool bound_ = false;
  std::thread thread_;
};

TEST(SocketTransport, ReplyAfterTheSpinBudgetIsStillRead) {
  const std::string path = "/tmp/ls_client_late_" +
                           std::to_string(::getpid()) + ".sock";
  const std::string reply = R"({"id":1,"ok":true})";
  ScriptedPeer peer(path, [&reply](const int fd) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::string frame = reply + "\n";
    (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  });
  ASSERT_TRUE(peer.bound()) << path;
  ClientOptions options;
  options.socket_path = path;
  options.max_attempts = 1;
  QueryClient client(options);
  const ClientResult result = client.call_line(R"({"id": 1, "op": "cr"})");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response, reply);
  EXPECT_EQ(result.attempts, 1);
}

TEST(SocketTransport, PeerClosingDuringTheSpinReadsAsClosed) {
  const std::string path = "/tmp/ls_client_close_" +
                           std::to_string(::getpid()) + ".sock";
  // The peer closes as soon as the request is in.  Waiting for that
  // puts the EOF on the socket before the read starts, so the spin's
  // first recv() meets it: a closed peer is reported from the spin, not
  // only by the poll() behind it.
  ScriptedPeer peer(path, [](int /*fd*/) {});
  ASSERT_TRUE(peer.bound()) << path;
  SocketTransport transport(path);
  ASSERT_TRUE(transport.connect());
  ASSERT_TRUE(transport.send_bytes("{\"id\": 1, \"op\": \"cr\"}\n"));
  peer.finish();
  std::string out;
  EXPECT_EQ(transport.read_some(out, 5000),
            ClientTransport::ReadStatus::kClosed);
  EXPECT_TRUE(out.empty()) << out;

  // Through the client: one attempt, ended by the close, not the
  // deadline.
  ScriptedPeer closer(path, [](int /*fd*/) {});
  ASSERT_TRUE(closer.bound()) << path;
  ClientOptions options;
  options.socket_path = path;
  options.max_attempts = 1;
  QueryClient client(options);
  const ClientResult result = client.call_line(R"({"id": 2, "op": "cr"})");
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.timed_out) << result.error;
  EXPECT_NE(result.error.find("connection closed before a response"),
            std::string::npos)
      << result.error;
}

/// The headline property, end to end: through chaotic channels at many
/// seeds, the client's answer — when it answers — is byte-identical to
/// the offline library's rendering.  (The full 120-seed corpus runs in
/// the fuzzer's kChaosWire kind; this is the direct unit-level pin.)
TEST(QueryClient, NeverReturnsAWrongAnswerThroughChaos) {
  CrQuery query;
  query.n = 3;
  query.f = 1;
  query.window_hi = 8;
  const QueryResult direct = evaluate_query_direct(query);

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    QueryServer server;
    ChaosConfig config;
    config.seed = seed;
    ClientOptions options = fast_options();
    options.max_attempts = config.clean_every + 2;
    options.jitter_seed = seed;
    QueryClient client(options,
                       std::make_unique<ChaosLoopback>(server, config));
    for (long long id = 1; id <= 2; ++id) {
      const ClientResult result = client.call(id, query);
      ASSERT_TRUE(result.ok)
          << "seed " << seed << " id " << id << ": " << result.error;
      EXPECT_EQ(result.response, render_response(id, direct))
          << "seed " << seed << " id " << id;
    }
  }
}

}  // namespace
}  // namespace svc
}  // namespace linesearch
