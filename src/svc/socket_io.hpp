// svc/socket_io.hpp — the one blocking socket read both ends of the
// wire use: spin, then park.
//
// A lock-step round trip hands the CPU back and forth: the client
// writes a request and waits, the server answers and waits.  A thread
// that waits in poll() sleeps, and the reply then has to wake its vCPU
// out of idle, which costs more than the whole request on a warm cache.
// read_spin_then_park first retries a non-blocking recv() for a short
// budget, yielding the CPU between tries, and only then parks in poll().
// docs/service.md ("Transport") has the measurements behind the budget.
#pragma once

#include <chrono>
#include <string>

namespace linesearch::svc {

/// How long a reader spins on recv(MSG_DONTWAIT) before it parks in
/// poll().  A raw AF_UNIX ping-pong of 1-byte messages on a 4-vCPU host
/// (each pair is two threads, both reading this way):
///
///   |                          | poll only     | spin 30 us, then poll |
///   |--------------------------|---------------|-----------------------|
///   | 1 pair, us per trip      | 11.6 - 18.4   | 5.0 - 5.1             |
///   | 2 pairs, us per trip     | 16.4 - 17.9   | 4.7 - 5.4             |
///   | 8 pairs, trips/s, total  | 500k - 646k   | 683k - 892k           |
///
/// The poll-only cost is the wake-up of an idle vCPU, not the kernel's
/// socket path.  Against lsbench svc_hot (two client connections to
/// serve_main), a 10 us budget reached 85k - 113k qps, 30 us 114k -
/// 134k and 100 us 108k - 119k, against 62k - 64k with poll only.
/// The sched_yield() between tries is what keeps the spin from costing
/// an oversubscribed host: 4 pairs (8 threads) ran 670k trips/s with
/// it and 63k without it, against 527k with poll only.
inline constexpr std::chrono::microseconds kReadSpinBudget{30};

/// What one read produced.
enum class ReadStatus {
  kData,     ///< bytes were appended to `out`
  kTimeout,  ///< nothing arrived in time (or a signal interrupted the wait)
  kClosed,   ///< the peer closed or the connection broke
};

/// Append what is readable on the stream socket `fd` to `out`: spin on
/// recv(MSG_DONTWAIT) with sched_yield() between tries for up to
/// kReadSpinBudget, then wait in poll() for up to timeout_ms (>= 0).
/// Returns as soon as any bytes, EOF or a hard error arrive.
[[nodiscard]] ReadStatus read_spin_then_park(int fd, std::string& out,
                                             int timeout_ms);

}  // namespace linesearch::svc
