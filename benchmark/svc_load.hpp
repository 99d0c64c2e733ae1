// svc_load.hpp — closed-loop load on serve_main over its socket.
//
// kConnections client threads, each owning one svc::QueryClient over a
// SocketTransport.  A connection sends its next request only when the
// previous reply has arrived, as client_main and the resilient client
// do.  Latency is timed client-side around QueryClient::call_line.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace lsbench {

/// What one measured phase of a closed loop did.
struct LoadPhase {
  std::vector<double> latency_us;  ///< one entry per call
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;    ///< !ok, {"ok":false} or inconsistent bytes
  std::uint64_t attempts = 0;  ///< client attempts, retries included
  double seconds = 0;          ///< phase start to its last reply
};

/// Add `part` to `total` (latencies appended, counts and seconds summed).
void merge_into(LoadPhase& total, const LoadPhase& part);

class SvcLoad {
 public:
  SvcLoad(const std::string& socket_path, Workload workload,
          const KeyTable& table, std::uint64_t seed);
  ~SvcLoad();
  SvcLoad(const SvcLoad&) = delete;
  SvcLoad& operator=(const SvcLoad&) = delete;

  /// Every connection sends its warm-up requests.
  LoadPhase warm_up();

  /// Run until `seconds` have passed.  With `spans` (one buffer per
  /// connection), each call also records a client.call span.
  LoadPhase run_for(double seconds, std::vector<SpanBuffer>* spans = nullptr);

  /// Close the connections; the reply logs stay readable.
  void disconnect();

  [[nodiscard]] std::vector<const ReplyLog*> logs() const;

 private:
  struct Connection;
  LoadPhase run(bool warm_up, std::int64_t deadline_ns,
                std::vector<SpanBuffer>* spans);

  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace lsbench
