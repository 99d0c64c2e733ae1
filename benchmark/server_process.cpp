#include "server_process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "svc/client.hpp"

extern char** environ;

namespace lsbench {
namespace {

/// How long the server may take to accept its first connection, and to
/// drain after SIGTERM (it polls its stop flag every 100 ms).
constexpr auto kStartTimeout = std::chrono::seconds(20);
constexpr int kDrainTimeoutMs = 20000;

std::uint64_t counter(const std::string& line, const std::string& name) {
  const std::size_t at = line.find(" " + name + "=");
  if (at == std::string::npos) {
    throw std::runtime_error("serve_main drain line lacks " + name + ": " +
                             line);
  }
  return std::stoull(line.substr(at + name.size() + 2));
}

}  // namespace

double peak_rss_mib(const pid_t pid) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

ServerProcess::ServerProcess(const std::string& binary,
                             std::string socket_path, const int threads)
    : socket_path_(std::move(socket_path)) {
  // Everything the child needs is built before fork(): between fork and
  // exec only async-signal-safe calls are allowed.
  const std::string threads_arg = std::to_string(threads);
  std::vector<const char*> argv = {binary.c_str(),   "--socket",
                                   socket_path_.c_str(), "--threads",
                                   threads_arg.c_str(), nullptr};
  // The global pool is sized from LINESEARCH_THREADS, so the server runs
  // exactly `threads` workers.
  const std::string pool = "LINESEARCH_THREADS=" + threads_arg;
  std::vector<const char*> envp;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "LINESEARCH_THREADS=", 19) != 0) {
      envp.push_back(*entry);
    }
  }
  envp.push_back(pool.c_str());
  envp.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, STDIN_FILENO);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::execve(argv[0], const_cast<char* const*>(argv.data()),
             const_cast<char* const*>(envp.data()));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  const auto deadline = std::chrono::steady_clock::now() + kStartTimeout;
  linesearch::svc::SocketTransport probe(socket_path_);
  while (!probe.connect()) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      ::close(stderr_fd_);
      stderr_fd_ = -1;
      throw std::runtime_error("serve_main exited before accepting: " +
                               binary);
    }
    if (std::chrono::steady_clock::now() > deadline) {
      kill_and_reap();
      throw std::runtime_error("serve_main did not accept on " +
                               socket_path_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

double ServerProcess::peak_rss_mib() const { return lsbench::peak_rss_mib(pid_); }

DrainCounters ServerProcess::stop() {
  ::kill(pid_, SIGTERM);
  std::string output;
  char chunk[4096];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kDrainTimeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd poller{stderr_fd_, POLLIN, 0};
    if (::poll(&poller, 1, 100) <= 0) continue;
    const ssize_t got = ::read(stderr_fd_, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF: the server has exited
    output.append(chunk, static_cast<std::size_t>(got));
  }
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (std::chrono::steady_clock::now() >= deadline) {
      kill_and_reap();
      throw std::runtime_error("serve_main did not drain within the timeout");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  ::close(stderr_fd_);
  stderr_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("serve_main exited abnormally: " + output);
  }
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("drained;") == std::string::npos) continue;
    DrainCounters counters;
    counters.requests = counter(line, "requests");
    counters.rejected = counter(line, "rejected");
    counters.cache_hits = counter(line, "cache_hits");
    counters.coalesced = counter(line, "coalesced");
    return counters;
  }
  throw std::runtime_error("serve_main printed no drain line: " + output);
}

void ServerProcess::kill_and_reap() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
}

}  // namespace lsbench
