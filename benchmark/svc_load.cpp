#include "svc_load.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "svc/client.hpp"

namespace lsbench {

struct SvcLoad::Connection {
  Connection(const std::string& socket_path, const Workload workload,
             const KeyTable& table, const std::uint64_t seed,
             const int index)
      : client(std::make_unique<linesearch::svc::QueryClient>(
            linesearch::svc::ClientOptions{.socket_path = socket_path})),
        stream(workload, table, seed, index),
        // svc_cold's keys never repeat: the gate checks a seeded 1 in 16.
        log(table.bodies.size(), workload == Workload::kSvcCold ? 16 : 0,
            static_cast<int>(stream_seed(seed, 5) % 16)) {}

  std::unique_ptr<linesearch::svc::QueryClient> client;
  RequestStream stream;
  ReplyLog log;
  long long next_id = 1;
};

SvcLoad::SvcLoad(const std::string& socket_path, const Workload workload,
                 const KeyTable& table, const std::uint64_t seed) {
  for (int c = 0; c < kConnections; ++c) {
    connections_.push_back(
        std::make_unique<Connection>(socket_path, workload, table, seed, c));
  }
}

SvcLoad::~SvcLoad() = default;

LoadPhase SvcLoad::warm_up() { return run(true, 0, nullptr); }

LoadPhase SvcLoad::run_for(const double seconds,
                           std::vector<SpanBuffer>* spans) {
  return run(false, now_ns() + static_cast<std::int64_t>(seconds * 1e9),
             spans);
}

void SvcLoad::disconnect() {
  for (const auto& connection : connections_) connection->client.reset();
}

std::vector<const ReplyLog*> SvcLoad::logs() const {
  std::vector<const ReplyLog*> out;
  for (const auto& connection : connections_) out.push_back(&connection->log);
  return out;
}

LoadPhase SvcLoad::run(const bool warm_up, const std::int64_t deadline_ns,
                       std::vector<SpanBuffer>* spans) {
  const std::size_t count = connections_.size();
  std::vector<LoadPhase> phases(count);
  std::vector<std::exception_ptr> errors(count);
  const std::int64_t start = now_ns();
  std::vector<std::int64_t> last_reply(count, start);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < count; ++c) {
    threads.emplace_back([&, c] {
      try {
        Connection& connection = *connections_[c];
        LoadPhase& phase = phases[c];
        SpanBuffer* trace = spans == nullptr ? nullptr : &(*spans)[c];
        if (!warm_up) phase.latency_us.reserve(1 << 20);
        int remaining = connection.stream.warmup_requests();
        std::string line;
        while (warm_up ? remaining-- > 0 : now_ns() < deadline_ns) {
          const long long id = connection.next_id++;
          const int key = connection.stream.next(id, line);
          const std::int64_t sent = now_ns();
          const linesearch::svc::ClientResult result =
              connection.client->call_line(line);
          const std::int64_t received = now_ns();
          phase.latency_us.push_back(static_cast<double>(received - sent) /
                                     1e3);
          if (trace != nullptr) trace->add("client.call", sent, received, id);
          ++phase.calls;
          phase.attempts += static_cast<std::uint64_t>(result.attempts);
          if (!result.ok || !connection.log.record(key, line, result.response)) {
            ++phase.failed;
          }
          last_reply[c] = received;
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  LoadPhase total;
  for (const LoadPhase& phase : phases) merge_into(total, phase);
  total.seconds =
      static_cast<double>(*std::max_element(last_reply.begin(),
                                            last_reply.end()) -
                          start) /
      1e9;
  return total;
}

void merge_into(LoadPhase& total, const LoadPhase& part) {
  total.latency_us.insert(total.latency_us.end(), part.latency_us.begin(),
                          part.latency_us.end());
  total.calls += part.calls;
  total.failed += part.failed;
  total.attempts += part.attempts;
  total.seconds += part.seconds;
}

}  // namespace lsbench
