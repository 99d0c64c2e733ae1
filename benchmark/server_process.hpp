// server_process.hpp — one serve_main child process on an AF_UNIX socket.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace lsbench {

/// Counters serve_main prints on its "drained; ..." stderr line.
struct DrainCounters {
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;
};

/// Peak resident memory (VmHWM) of a process, in MiB; `pid` 0 = this one.
[[nodiscard]] double peak_rss_mib(pid_t pid = 0);

/// Spawns `binary --socket socket_path --threads threads` and returns once
/// the socket accepts connections.  The child dies with this process
/// (PR_SET_PDEATHSIG), and the destructor kills and reaps a child that
/// stop() did not.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, std::string socket_path,
                int threads);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }
  [[nodiscard]] double peak_rss_mib() const;

  /// SIGTERM, wait for the graceful drain, and parse the drain line.
  /// Throws when the server does not drain cleanly.
  DrainCounters stop();

 private:
  void kill_and_reap() noexcept;

  std::string socket_path_;
  pid_t pid_ = -1;
  int stderr_fd_ = -1;  ///< read end of the child's stderr
};

}  // namespace lsbench
