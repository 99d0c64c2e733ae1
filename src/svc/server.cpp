#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/snapshot.hpp"
#include "svc/socket_io.hpp"
#include "util/error.hpp"
#include "util/jsonio.hpp"
#include "util/parallel.hpp"

namespace linesearch::svc {
namespace {

/// Wire-level counters.  All timing/arrival dependent under concurrency,
/// hence deterministic = false (the determinism tests filter them out).
struct WireMetrics {
  obs::MetricId requests;
  obs::MetricId rejected;
  obs::MetricId errors;
  obs::MetricId queue_depth;
  obs::MetricId latency;
  obs::MetricId frame_rejected;
  obs::MetricId idle_closed;
  obs::MetricId write_timeout;
  obs::MetricId write_failures;
  obs::MetricId drain_rejected;

  static const WireMetrics& instance() {
    static const WireMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::instance();
      WireMetrics m;
      m.requests =
          registry.counter("svc.requests", /*deterministic=*/false);
      m.rejected =
          registry.counter("svc.rejected", /*deterministic=*/false);
      m.errors = registry.counter("svc.errors", /*deterministic=*/false);
      m.frame_rejected =
          registry.counter("svc.frame_rejected", /*deterministic=*/false);
      m.idle_closed = registry.counter("svc.deadline_idle_closed",
                                       /*deterministic=*/false);
      m.write_timeout = registry.counter("svc.deadline_write_timeout",
                                         /*deterministic=*/false);
      m.write_failures =
          registry.counter("svc.write_failures", /*deterministic=*/false);
      m.drain_rejected =
          registry.counter("svc.drain_rejected", /*deterministic=*/false);
      // High-water mark of concurrently evaluating requests.
      m.queue_depth =
          registry.gauge("svc.queue_depth", /*deterministic=*/false);
      // Per-request wall latency in microseconds.
      m.latency = registry.histogram(
          "svc.latency_usec",
          {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
           50000, 100000, 250000, 1000000},
          /*deterministic=*/false);
      return m;
    }();
    return metrics;
  }
};

/// Poll interval of the accept/read loops: how often the stop flag is
/// observed while blocked on the socket.
constexpr int kPollMillis = 100;

Real real_field(const JsonView& doc, const char* name, const Real fallback) {
  const JsonToken* found = doc.find(name);
  return found == nullptr ? fallback : found->as_real();
}

int int_field(const JsonView& doc, const char* name, const int fallback) {
  const JsonToken* found = doc.find(name);
  if (found == nullptr) return fallback;
  const long long value = found->as_int();
  expects(value >= INT_MIN && value <= INT_MAX, [name] {
    return std::string("svc: field '") + name + "' out of int range";
  });
  return static_cast<int>(value);
}

/// The text an error response carries.  A library error contributes its
/// message without the source location, so the response bytes are the
/// same in every checkout and build of the server.
std::string_view wire_message(const std::exception& failure) {
  if (const auto* error = dynamic_cast<const Error*>(&failure)) {
    return error->message();
  }
  return failure.what();
}

void bump(std::atomic<std::uint64_t>& tally) {
  tally.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

WireRequest parse_request(const std::string_view line) {
  // JsonView validates the whole line first, so a syntax error always
  // wins over a field error; fields are then read in a fixed order.
  const JsonView doc(line);
  expects(doc.is_object(), "svc: request must be a JSON object");
  WireRequest request;
  if (const JsonToken* id = doc.find("id"); id != nullptr) {
    request.id = id->as_int();
  }
  const std::string_view op = doc.at("op").as_string();
  expects(op == "cr", [op] {
    return "svc: unknown op '" + std::string(op) + "' (valid: cr)";
  });
  CrQuery& query = request.query;
  query.n = int_field(doc, "n", query.n);
  query.f = int_field(doc, "f", query.f);
  query.beta = real_field(doc, "beta", query.beta);
  query.window_lo = real_field(doc, "window_lo", query.window_lo);
  query.window_hi = real_field(doc, "window_hi", query.window_hi);
  query.interior_samples =
      int_field(doc, "interior_samples", query.interior_samples);
  if (const JsonToken* regime = doc.find("regime"); regime != nullptr) {
    query.regime = fault_regime_from_name(regime->as_string());
  }
  if (const JsonToken* crashes = doc.find("crash_times");
      crashes != nullptr) {
    const JsonView entries(crashes->as_array());
    for (const JsonView::Member& entry : entries.members()) {
      query.crash_times.push_back(entry.value.as_real());
    }
  }
  query.fault_p = real_field(doc, "fault_p", query.fault_p);
  return request;
}

// The renderers spell out what a compact JsonWriter emits for these
// fields, straight into one string: the same bytes, without a stream.

std::string render_response_tail(const QueryResult& result) {
  std::string out;
  out.reserve(240);
  out += ",\"ok\":true,\"feasible\":";
  out += result.feasible ? "true" : "false";
  out += ",\"cr\":";
  out += json_real(result.cr);
  out += ",\"argmax\":";
  out += json_real(result.argmax);
  out += ",\"cr_positive\":";
  out += json_real(result.cr_positive);
  out += ",\"cr_negative\":";
  out += json_real(result.cr_negative);
  out += ",\"probes\":";
  out += std::to_string(result.probes);
  out += ",\"undetected_probes\":";
  out += std::to_string(result.undetected_probes);
  out += '}';
  return out;
}

namespace {

/// `{"id":<id>` then `tail`.  The room reserved covers the framing
/// newline write_line appends.
std::string with_id(const long long id, const std::string& tail) {
  std::string out;
  out.reserve(tail.size() + 32);
  out += "{\"id\":";
  out += std::to_string(id);
  out += tail;
  return out;
}

}  // namespace

std::string render_response(const long long id, const QueryResult& result) {
  return with_id(id, render_response_tail(result));
}

long long peek_request_id(const std::string_view line) noexcept {
  try {
    const JsonView doc(line);
    if (!doc.is_object()) return 0;
    const JsonToken* id = doc.find("id");
    return id == nullptr ? 0 : id->as_int();
  } catch (const std::exception&) {
    return 0;
  }
}

std::vector<std::string> drain_reject_lines(const std::string& pending) {
  std::vector<std::string> responses;
  std::size_t line_start = 0;
  while (line_start <= pending.size()) {
    const std::size_t newline = pending.find('\n', line_start);
    if (newline == std::string::npos) break;
    const std::string line =
        pending.substr(line_start, newline - line_start);
    line_start = newline + 1;
    if (line.empty()) continue;
    responses.push_back(render_error(peek_request_id(line),
                                     "draining: server is shutting down"));
  }
  return responses;
}

std::string render_error(const long long id, const std::string_view message) {
  std::string out;
  out.reserve(message.size() + 64);
  out += "{\"id\":";
  out += std::to_string(id);
  out += ",\"ok\":false,\"error\":\"";
  out += json_escape(message);
  out += "\"}";
  return out;
}

QueryServer::QueryServer(QueryServerOptions options)
    : options_(std::move(options)), service_(options_.service) {
  // max_inflight == 0 is a valid (degenerate) bound: every request is
  // over capacity, which is how the backpressure path is tested
  // deterministically.
  expects(options_.threads > 0, "svc: threads must be positive");
}

std::string QueryServer::handle_line(const std::string& line) {
  const auto start = std::chrono::steady_clock::now();
  obs::count(WireMetrics::instance().requests);
  bump(tallies_.requests);

  long long id = 0;
  std::string response;
  // Admission control: bound concurrent evaluations; excess requests see
  // an explicit overload error instead of unbounded queueing.
  const std::size_t depth =
      inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  obs::gauge_to(WireMetrics::instance().queue_depth, depth);
  if (depth > options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    obs::count(WireMetrics::instance().rejected);
    obs::count(WireMetrics::instance().errors);
    bump(tallies_.rejected);
    bump(tallies_.errors);
    return render_error(id, "overloaded");
  }
  try {
    const WireRequest request = parse_request(line);
    id = request.id;
    // The cached tail is render_response_tail of the answered result,
    // so this is render_response's bytes without formatting a number.
    response = with_id(id, *service_.answer(request.query).tail);
  } catch (const std::exception& failure) {
    obs::count(WireMetrics::instance().errors);
    bump(tallies_.errors);
    // Echo the request id whenever the line itself parsed (the failure
    // was a bad op/field): clients can then match the structured error
    // to its request.  A 0-id error means the REQUEST was unparseable —
    // to a client that only sends ids >= 1, proof of a damaged frame.
    if (id == 0) id = peek_request_id(line);
    response = render_error(id, wire_message(failure));
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);

  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  obs::observe(WireMetrics::instance().latency,
               static_cast<std::uint64_t>(micros));
  return response;
}

bool QueryServer::write_line(const int fd, std::string line) {
  line += '\n';
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.write_timeout_ms);
  std::size_t written = 0;
  while (written < line.size()) {
    // MSG_NOSIGNAL: a client that closed mid-response yields EPIPE here
    // instead of a process-killing SIGPIPE — the library-level half of
    // the fix (serve_main's SIG_IGN only covers its own process, not
    // embedders or the test binaries).  MSG_DONTWAIT: a socket buffer
    // with room takes the response in this one call; only a full one
    // waits below.
    const ssize_t sent = ::send(fd, line.data() + written,
                                line.size() - written,
                                MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent >= 0) {
      written += static_cast<std::size_t>(sent);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) break;  // the peer is gone
    // A peer that stops reading must not park this worker forever:
    // wait for writability only up to the write deadline.
    int wait = -1;
    if (options_.write_timeout_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        obs::count(WireMetrics::instance().write_timeout);
        obs::count(WireMetrics::instance().write_failures);
        bump(tallies_.write_failures);
        return false;
      }
      wait = std::max(
          1, static_cast<int>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     deadline - now)
                     .count()));
    }
    pollfd poller{};
    poller.fd = fd;
    poller.events = POLLOUT;
    if (::poll(&poller, 1, wait) < 0 && errno != EINTR) break;
  }
  if (written >= line.size()) return true;
  obs::count(WireMetrics::instance().write_failures);
  bump(tallies_.write_failures);
  return false;
}

void QueryServer::handle_connection(const int fd) {
  bump(tallies_.connections);
  std::string buffer;
  bool open = true;
  // The idle clock starts at accept and resets only on a COMPLETE
  // request line — receiving stray bytes does not count as progress, so
  // a trickling (slowloris) client and a silent one expire the same way.
  auto last_progress = std::chrono::steady_clock::now();
  while (open) {
    // Drain every complete line already buffered before blocking again;
    // responses go back in request order (the lock-step clients the
    // golden replay uses never see reordering).
    std::size_t line_start = 0;
    while (true) {
      const std::size_t newline = buffer.find('\n', line_start);
      if (newline == std::string::npos) break;
      const std::string line =
          buffer.substr(line_start, newline - line_start);
      line_start = newline + 1;
      if (line.empty()) continue;
      last_progress = std::chrono::steady_clock::now();
      if (!write_line(fd, handle_line(line))) {
        open = false;
        break;
      }
    }
    buffer.erase(0, line_start);
    if (!open) break;

    // Frame bound: a pending line that outgrew the limit can only get
    // worse — reject it visibly and close before it becomes an OOM.
    if (buffer.size() > options_.max_request_bytes) {
      obs::count(WireMetrics::instance().frame_rejected);
      bump(tallies_.frame_rejected);
      (void)write_line(
          fd, render_error(0, "malformed: request line exceeds " +
                                  std::to_string(options_.max_request_bytes) +
                                  " bytes"));
      break;
    }

    // Graceful drain: once stop() is requested, what was already
    // buffered has been ANSWERED above; anything still queued in the
    // socket gets a visible "draining" rejection — answered or
    // rejected, never silently dropped.
    if (stopping()) {
      std::string pending;
      char chunk[4096];
      ssize_t got = 0;
      while ((got = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT)) > 0) {
        pending.append(chunk, static_cast<std::size_t>(got));
      }
      for (std::string& rejection : drain_reject_lines(pending)) {
        obs::count(WireMetrics::instance().drain_rejected);
        bump(tallies_.drain_rejected);
        if (!write_line(fd, std::move(rejection))) break;
      }
      break;
    }

    // Idle deadline, from the last complete request.
    if (options_.idle_timeout_ms > 0) {
      const auto idle_for =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - last_progress)
              .count();
      if (idle_for > options_.idle_timeout_ms) {
        obs::count(WireMetrics::instance().idle_closed);
        bump(tallies_.idle_closed);
        (void)write_line(
            fd, render_error(0, "timeout: connection idle beyond " +
                                    std::to_string(options_.idle_timeout_ms) +
                                    " ms"));
        break;
      }
    }

    // Spin, then park (svc/socket_io): data, a timeout and a signal all
    // go back to the top, so stop flag and deadlines are re-checked.
    if (read_spin_then_park(fd, buffer, kPollMillis) == ReadStatus::kClosed) {
      break;  // EOF or a broken connection
    }
  }
  ::close(fd);
}

void QueryServer::serve(const std::string& socket_path) {
  expects(!socket_path.empty(), "svc: socket path must be non-empty");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  expects(socket_path.size() < sizeof address.sun_path,
          "svc: socket path too long for AF_UNIX");
  std::memcpy(address.sun_path, socket_path.c_str(),
              socket_path.size() + 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw Error(std::string("svc: socket() failed: ") +
                std::strerror(errno));
  }
  ::unlink(socket_path.c_str());  // replace a stale socket file
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener);
    throw Error("svc: bind(" + socket_path + ") failed: " + reason);
  }
  if (::listen(listener, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener);
    ::unlink(socket_path.c_str());
    throw Error("svc: listen() failed: " + reason);
  }

  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(options_.threads);

  // Outstanding connection tasks, for the shutdown drain.
  std::mutex drain_mutex;
  std::condition_variable drained;
  std::size_t active = 0;

  while (!stopping()) {
    pollfd poller{};
    poller.fd = listener;
    poller.events = POLLIN;
    const int ready = ::poll(&poller, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Live checkpoint (SIGUSR1): write the snapshot from the accept
    // thread — export_cache takes per-shard locks, so serving threads
    // are never blocked for the whole write.
    if (checkpoint_.exchange(false, std::memory_order_relaxed)) {
      maybe_snapshot();
    }
    if (ready == 0) continue;  // timeout: re-check the stop flag
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    {
      const std::lock_guard<std::mutex> lock(drain_mutex);
      ++active;
    }
    pool.submit([this, fd, &drain_mutex, &drained, &active] {
      handle_connection(fd);
      const std::lock_guard<std::mutex> lock(drain_mutex);
      --active;
      drained.notify_all();
    });
  }

  // Drain: no new connections, in-flight ones finish their buffered
  // requests (handle_connection observes the stop flag).
  ::close(listener);
  {
    std::unique_lock<std::mutex> lock(drain_mutex);
    drained.wait(lock, [&active] { return active == 0; });
  }
  // Drain-time snapshot: the cache is quiescent now, so this capture is
  // the warmest possible restart image.
  maybe_snapshot();
  ::unlink(socket_path.c_str());
}

void QueryServer::maybe_snapshot() noexcept {
  if (options_.snapshot_path.empty()) return;
  try {
    (void)save_snapshot(service_, options_.snapshot_path);
  } catch (const std::exception&) {
    // A full disk or unwritable path must not take the service down;
    // the next checkpoint retries.
    obs::count(WireMetrics::instance().write_failures);
  }
}

QueryServer::Stats QueryServer::stats() const {
  const auto load = [](const std::atomic<std::uint64_t>& tally) {
    return tally.load(std::memory_order_relaxed);
  };
  return {.requests = load(tallies_.requests),
          .errors = load(tallies_.errors),
          .rejected = load(tallies_.rejected),
          .connections = load(tallies_.connections),
          .frame_rejected = load(tallies_.frame_rejected),
          .idle_closed = load(tallies_.idle_closed),
          .drain_rejected = load(tallies_.drain_rejected),
          .write_failures = load(tallies_.write_failures)};
}

}  // namespace linesearch::svc
