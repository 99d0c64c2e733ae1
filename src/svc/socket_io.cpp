#include "svc/socket_io.hpp"

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>

#include <cerrno>

namespace linesearch::svc {

ReadStatus read_spin_then_park(const int fd, std::string& out,
                               const int timeout_ms) {
  char chunk[4096];
  const auto spin_until = std::chrono::steady_clock::now() + kReadSpinBudget;
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got > 0) {
      out.append(chunk, static_cast<std::size_t>(got));
      return ReadStatus::kData;
    }
    if (got == 0) return ReadStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return ReadStatus::kClosed;
    if (std::chrono::steady_clock::now() >= spin_until) break;
    ::sched_yield();
  }

  pollfd poller{};
  poller.fd = fd;
  poller.events = POLLIN;
  const int ready = ::poll(&poller, 1, timeout_ms);
  if (ready < 0) {
    return errno == EINTR ? ReadStatus::kTimeout : ReadStatus::kClosed;
  }
  if (ready == 0) return ReadStatus::kTimeout;
  const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
  if (got < 0) {
    return errno == EINTR ? ReadStatus::kTimeout : ReadStatus::kClosed;
  }
  if (got == 0) return ReadStatus::kClosed;
  out.append(chunk, static_cast<std::size_t>(got));
  return ReadStatus::kData;
}

}  // namespace linesearch::svc
