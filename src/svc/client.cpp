#include "svc/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/jsonio.hpp"
#include "util/rng.hpp"

namespace linesearch::svc {
namespace {

/// Client-side resilience counters (timing/fault dependent, hence
/// deterministic = false).
struct ClientMetrics {
  obs::MetricId calls;
  obs::MetricId retries;
  obs::MetricId reconnects;
  obs::MetricId timeouts;
  obs::MetricId corrupt_frames;

  static const ClientMetrics& instance() {
    static const ClientMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::instance();
      ClientMetrics m;
      m.calls = registry.counter("svc.client_calls", /*deterministic=*/false);
      m.retries =
          registry.counter("svc.client_retries", /*deterministic=*/false);
      m.reconnects =
          registry.counter("svc.client_reconnects", /*deterministic=*/false);
      m.timeouts =
          registry.counter("svc.client_timeouts", /*deterministic=*/false);
      m.corrupt_frames = registry.counter("svc.client_corrupt_frames",
                                          /*deterministic=*/false);
      return m;
    }();
    return metrics;
  }
};

/// Parse the request line's id without validating the full query shape
/// (the server owns that).  Throws on unparseable JSON.
long long request_id_of(const std::string_view line) {
  const JsonView doc(line);
  expects(doc.is_object(), "client: request must be a JSON object");
  const JsonToken* id = doc.find("id");
  return id == nullptr ? 0 : id->as_int();
}

}  // namespace

Reply classify_response(const std::string_view line,
                        const long long expected_id) {
  try {
    const JsonView doc(line);
    if (!doc.is_object()) return Reply::kForeign;
    const JsonToken* id = doc.find("id");
    if (id == nullptr || id->as_int() != expected_id) return Reply::kForeign;
    const JsonToken* ok = doc.find("ok");
    if (ok == nullptr) return Reply::kForeign;
    if (ok->kind != JsonKind::kBool || ok->as_bool()) return Reply::kAnswer;
    const JsonToken* error = doc.find("error");
    if (error == nullptr || error->kind != JsonKind::kString) {
      return Reply::kAnswer;
    }
    const std::string_view text = error->as_string();
    return text == "overloaded" || text.starts_with("draining")
               ? Reply::kRetryable
               : Reply::kAnswer;
  } catch (const std::exception&) {
    return Reply::kForeign;
  }
}

SocketTransport::SocketTransport(std::string socket_path)
    : socket_path_(std::move(socket_path)) {}

SocketTransport::~SocketTransport() { disconnect(); }

bool SocketTransport::connect() {
  disconnect();
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path_.empty() ||
      socket_path_.size() >= sizeof address.sun_path) {
    return false;
  }
  std::memcpy(address.sun_path, socket_path_.c_str(),
              socket_path_.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool SocketTransport::send_bytes(const std::string& data) {
  if (fd_ < 0) return false;
  std::size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-send yields EPIPE instead
    // of killing the process.
    const ssize_t sent = ::send(fd_, data.data() + written,
                                data.size() - written, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(sent);
  }
  return true;
}

ClientTransport::ReadStatus SocketTransport::read_some(std::string& out,
                                                       const int timeout_ms) {
  if (fd_ < 0) return ReadStatus::kClosed;
  return read_spin_then_park(fd_, out, std::max(0, timeout_ms));
}

void SocketTransport::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

QueryClient::QueryClient(ClientOptions options)
    : options_(std::move(options)),
      transport_(std::make_unique<SocketTransport>(options_.socket_path)) {}

QueryClient::QueryClient(ClientOptions options,
                         std::unique_ptr<ClientTransport> transport)
    : options_(std::move(options)), transport_(std::move(transport)) {
  expects(transport_ != nullptr, "client: transport must be non-null");
}

QueryClient::~QueryClient() = default;

ClientResult QueryClient::call_line(const std::string& request_line) {
  obs::count(ClientMetrics::instance().calls);
  ClientResult result;

  long long expected_id = 0;
  try {
    expected_id = request_id_of(request_line);
  } catch (const std::exception& failure) {
    result.error = std::string("client: bad request line: ") + failure.what();
    return result;
  }

  SplitMix64 jitter(options_.jitter_seed ^
                    static_cast<std::uint64_t>(expected_id));
  const std::string frame = request_line + '\n';
  std::string last_failure = "no attempt made";
  bool last_was_timeout = false;

  const int attempts = std::max(1, options_.max_attempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) {
      obs::count(ClientMetrics::instance().retries);
      // Capped exponential backoff with deterministic jitter; loopback
      // differentials set sleep_on_backoff = false and stay in logical
      // time.
      long long delay = options_.backoff_initial_ms;
      for (int i = 1; i < attempt - 1 && delay < options_.backoff_cap_ms; ++i) {
        delay *= 2;
      }
      delay = std::min<long long>(delay, options_.backoff_cap_ms);
      delay += static_cast<long long>(
          jitter.next() % static_cast<std::uint64_t>(delay / 2 + 1));
      if (options_.sleep_on_backoff && delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }

    if (!transport_->connected()) {
      if (!transport_->connect()) {
        last_failure = "connect failed";
        last_was_timeout = false;
        continue;
      }
      if (attempt > 1) {
        ++result.reconnects;
        obs::count(ClientMetrics::instance().reconnects);
      }
    }

    if (!transport_->send_bytes(frame)) {
      last_failure = "send failed (connection broken)";
      last_was_timeout = false;
      transport_->disconnect();
      continue;
    }

    // Read until the deadline, scanning complete lines for the one
    // authoritative response.  Damaged frames (unparseable, wrong id —
    // the server answers unparseable REQUESTS with id 0, so ids >= 1
    // make corruption visible) force a reconnect: queries are pure, so
    // the re-issue is safe by construction.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(std::max(1, options_.request_timeout_ms));
    std::string buffer;
    bool attempt_done = false;
    while (!attempt_done) {
      std::size_t line_start = 0;
      while (true) {
        const std::size_t newline = buffer.find('\n', line_start);
        if (newline == std::string::npos) break;
        const std::string_view line(buffer.data() + line_start,
                                    newline - line_start);
        line_start = newline + 1;
        if (line.empty()) continue;
        const Reply reply = classify_response(line, expected_id);
        if (reply == Reply::kForeign) {
          obs::count(ClientMetrics::instance().corrupt_frames);
          last_failure = "damaged or foreign response frame";
          last_was_timeout = false;
          transport_->disconnect();
          attempt_done = true;
          break;
        }
        if (reply == Reply::kRetryable) {
          last_failure = "server shed the request (overloaded/draining)";
          last_was_timeout = false;
          transport_->disconnect();
          attempt_done = true;
          break;
        }
        // Authoritative: parsed, id echoed — byte-exactly the server's
        // intended response (a proper prefix of a JSON object never
        // parses).  Leftover buffered bytes would be corruption debris;
        // drop the connection rather than let them leak into the next
        // call.
        result.ok = true;
        result.response.assign(line);
        if (line_start < buffer.size()) transport_->disconnect();
        return result;
      }
      if (attempt_done) break;
      buffer.erase(0, line_start);

      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        obs::count(ClientMetrics::instance().timeouts);
        last_failure = "deadline exceeded waiting for response";
        last_was_timeout = true;
        transport_->disconnect();
        break;
      }
      const int remaining = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      switch (transport_->read_some(buffer, std::max(1, remaining))) {
        case ClientTransport::ReadStatus::kData: break;
        case ClientTransport::ReadStatus::kTimeout:
          obs::count(ClientMetrics::instance().timeouts);
          last_failure = "deadline exceeded waiting for response";
          last_was_timeout = true;
          transport_->disconnect();
          attempt_done = true;
          break;
        case ClientTransport::ReadStatus::kClosed:
          last_failure = "connection closed before a response";
          last_was_timeout = false;
          transport_->disconnect();
          attempt_done = true;
          break;
      }
    }
  }

  result.ok = false;
  result.timed_out = last_was_timeout;
  result.error = "client: " + std::to_string(result.attempts) +
                 " attempt(s) exhausted; last failure: " + last_failure;
  return result;
}

ClientResult QueryClient::call(const long long id, const CrQuery& query) {
  expects(id >= 1, "client: request ids must be >= 1");
  return call_line(render_request(id, query));
}

std::string render_request(const long long id, const CrQuery& query) {
  std::ostringstream out;
  JsonWriter json(out, /*compact=*/true);
  json.begin_object();
  json.field("id", id);
  json.field("op", "cr");
  json.field("n", query.n);
  json.field("f", query.f);
  json.field("beta", query.beta);
  json.field("window_lo", query.window_lo);
  json.field("window_hi", query.window_hi);
  json.field("interior_samples", query.interior_samples);
  json.field("regime", fault_regime_name(query.regime));
  if (query.regime == FaultRegime::kProbabilistic) {
    json.field("fault_p", query.fault_p);
  }
  json.key("crash_times").begin_array();
  for (const Real t : query.crash_times) json.value(t);
  json.end_array();
  json.end_object();
  return out.str();
}

}  // namespace linesearch::svc
