// svc/server.hpp — the always-on CR evaluation service.
//
// Wire format (docs/service.md): newline-delimited JSON over a local
// AF_UNIX socket.  One request per line, one response per line, in
// request order per connection.  Requests name a query:
//   {"id": 7, "op": "cr", "n": 5, "f": 2, "beta": "nan",
//    "window_lo": 1, "window_hi": 64, "interior_samples": 4,
//    "regime": "none", "crash_times": []}
// with every field except "op" optional (CrQuery defaults apply; "id"
// defaults to 0 and is echoed verbatim).  Responses carry ONLY values —
// no timestamps, no cache provenance — so a replayed golden corpus is
// byte-identical regardless of cache state, thread count, or arrival
// order:
//   {"id":7,"ok":true,"feasible":true,"cr":...,"argmax":...,
//    "cr_positive":...,"cr_negative":...,"probes":...,
//    "undetected_probes":...}
// Failures (parse errors, precondition violations, overload rejection)
// respond {"id":...,"ok":false,"error":"..."} and keep the connection
// open; non-finite Reals ride the shared codec strings ("inf"/"nan").
//
// `QueryServer::handle_line` is the whole protocol as a pure-ish
// function (it only touches the QueryService): the in-process round trip
// behind verify::diff_chaos_vs_library and the golden-fixture tests.
// `serve()` adds the socket machinery: a poll-based accept loop,
// per-connection tasks on util/parallel's global pool, bounded admission
// with backpressure (excess requests get an "overloaded" error response
// rather than unbounded queueing), and graceful drain on stop() — the
// listener closes first, in-flight connections finish their current
// line, then serve() returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svc/query.hpp"

namespace linesearch::svc {

/// Server tuning knobs on top of QueryServiceOptions.
struct QueryServerOptions {
  QueryServiceOptions service;
  /// Admission bound: requests evaluating concurrently across all
  /// connections.  At the bound, new requests are REJECTED with an
  /// "overloaded" error response (backpressure the client can see)
  /// instead of queueing without limit.
  std::size_t max_inflight = 64;
  /// Worker threads the socket server asks the global pool to provide.
  int threads = 4;
  /// Frame bound: a pending request line may not exceed this many bytes
  /// (OOM guard).  Violations get a structured "malformed" error
  /// response, then the connection closes.
  std::size_t max_request_bytes = 1 << 16;
  /// Idle deadline per connection, measured from the last COMPLETE
  /// request line (so a trickling slowloris client cannot reset it by
  /// dribbling bytes).  Expiry gets a structured "timeout" error
  /// response, then the connection closes.  0 disables.
  int idle_timeout_ms = 30000;
  /// Per-response write deadline: a peer that stops reading cannot park
  /// a worker forever.  0 disables.
  int write_timeout_ms = 5000;
  /// Warm-restart snapshot file (svc/snapshot): written atomically when
  /// serve() drains and on request_checkpoint().  Empty disables.
  std::string snapshot_path;
};

/// The service: one QueryService behind a newline-delimited JSON
/// protocol.  handle_line is thread-safe; serve()/stop() manage the
/// socket lifecycle.
class QueryServer {
 public:
  explicit QueryServer(QueryServerOptions options = {});

  /// Process one request line, producing one response line (no trailing
  /// newline — the caller owns framing).  Never throws: every failure
  /// becomes an {"ok":false} response.  Thread-safe.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Bind `socket_path` (AF_UNIX; an existing stale socket file is
  /// replaced) and serve until stop().  Connections are handled on the
  /// global thread pool; the caller's thread runs the accept loop.
  /// Returns after the drain: listener closed, every accepted
  /// connection finished.  Throws Error on socket setup failure.
  void serve(const std::string& socket_path);

  /// Request a graceful drain of serve() (safe from a signal-triggered
  /// thread or the process signal mask — it only flips an atomic).
  void stop() noexcept { stopping_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Request a live cache checkpoint (SIGUSR1 in tools/serve_main —
  /// async-signal-safe: only flips an atomic).  The accept loop writes
  /// options().snapshot_path at its next tick; a no-op when no snapshot
  /// path is configured.
  void request_checkpoint() noexcept {
    checkpoint_.store(true, std::memory_order_relaxed);
  }

  /// The underlying query service (stats/backends inspection in tests).
  [[nodiscard]] QueryService& service() { return service_; }

  /// Monotonic wire-level counters (also exported as svc.* obs metrics),
  /// as a snapshot of the live tallies.
  struct Stats {
    std::uint64_t requests = 0;  ///< lines received (including malformed)
    std::uint64_t errors = 0;    ///< {"ok":false} responses
    std::uint64_t rejected = 0;  ///< overload rejections (subset of errors)
    std::uint64_t connections = 0;  ///< sockets accepted
    std::uint64_t frame_rejected = 0;  ///< oversized request lines
    std::uint64_t idle_closed = 0;     ///< idle-deadline connection closes
    std::uint64_t drain_rejected = 0;  ///< requests rejected during drain
    std::uint64_t write_failures = 0;  ///< EPIPE/timeout on response writes
  };
  [[nodiscard]] Stats stats() const;

  const QueryServerOptions& options() const { return options_; }

 private:
  /// One connection: read lines, answer lines, until EOF, stop(), or a
  /// deadline/frame violation.
  void handle_connection(int fd);

  /// Deadline/EPIPE-tolerant write of `line` plus its framing newline;
  /// false closes the connection (and counts the failure) — never a
  /// signal, never a parked worker.
  bool write_line(int fd, std::string line);

  /// Write options_.snapshot_path if configured; failures are counted
  /// (svc.snapshot_rejected is the LOAD side; save failures throw
  /// inside and are swallowed here — serving must not die for a full
  /// disk).
  void maybe_snapshot() noexcept;

  QueryServerOptions options_;
  QueryService service_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> checkpoint_{false};
  std::atomic<std::size_t> inflight_{0};

  /// Live tallies behind stats(): relaxed atomics, since each counts on
  /// its own and no reader needs them mutually consistent.
  struct Tallies {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> frame_rejected{0};
    std::atomic<std::uint64_t> idle_closed{0};
    std::atomic<std::uint64_t> drain_rejected{0};
    std::atomic<std::uint64_t> write_failures{0};
  };
  Tallies tallies_;
};

/// Parse one wire request into (id, query).  Throws PreconditionError on
/// malformed JSON, unknown ops, or invalid query fields — handle_line
/// catches and turns that into an error response; exposed so tests can
/// exercise the codec directly.
struct WireRequest {
  long long id = 0;
  CrQuery query;
};
[[nodiscard]] WireRequest parse_request(std::string_view line);

/// Render the success / error response lines (compact JSON, no trailing
/// newline).  These functions define the byte format the golden
/// fixtures pin.  A success response is `{"id":<id>` followed by
/// render_response_tail(result), the part QueryService caches per entry.
[[nodiscard]] std::string render_response(long long id,
                                          const QueryResult& result);
[[nodiscard]] std::string render_response_tail(const QueryResult& result);
[[nodiscard]] std::string render_error(long long id,
                                       std::string_view message);

/// Best-effort id extraction from a request line: the id field if the
/// line parses as a JSON object, else 0.  Error responses echo this, so
/// a resilient client can match a structured failure to its request —
/// and a 0-id response to a nonzero-id request is provable evidence the
/// request was damaged in flight (svc/client.hpp).
[[nodiscard]] long long peek_request_id(std::string_view line) noexcept;

/// The drain contract's reject half (docs/service.md): one visible
/// "draining" error response per complete line still in `pending` when
/// stop() was observed — nothing is silently dropped.  Returns the
/// response lines in request order; exposed for deterministic tests.
[[nodiscard]] std::vector<std::string> drain_reject_lines(
    const std::string& pending);

}  // namespace linesearch::svc
