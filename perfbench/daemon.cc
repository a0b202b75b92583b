#include "perfbench/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/common.h"

extern char** environ;

namespace perfbench {

Daemon::Daemon(const std::string& serverd, const std::string& db) {
  // Everything the child needs is prepared before fork: after it, only
  // async-signal-safe calls are allowed.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PBITREE_SERVE_PORT=", 19) != 0) env_strings.emplace_back(*e);
  }
  env_strings.emplace_back("PBITREE_SERVE_PORT=0");
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::string arg0 = serverd;
  std::string arg1 = db;
  std::string arg2 = "--backend=file";
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) Die("pipe: " + std::string(std::strerror(errno)));
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) Die("fork: " + std::string(std::strerror(errno)));
  if (pid_ == 0) {
    // The daemon dies with this process even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    execve(argv[0], argv, envp.data());
    _exit(127);
  }
  TrackChild(pid_);
  close(fds[1]);
  out_fd_ = fds[0];

  // Read the banner: "pbitree_serverd listening on 127.0.0.1:<port> ...".
  const int64_t deadline = NowNs() + 30'000'000'000LL;
  std::string out;
  const std::string marker = "listening on 127.0.0.1:";
  for (;;) {
    const size_t at = out.find(marker);
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      port_ = std::atoi(out.c_str() + at + marker.size());
      banner_ = out.substr(at, out.find('\n', at) - at);
      break;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) Die("pbitree_serverd printed no banner within 30 s");
    pollfd p{out_fd_, POLLIN, 0};
    const int r = poll(&p, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) continue;
    char buf[512];
    const ssize_t n = r > 0 ? read(out_fd_, buf, sizeof(buf)) : 0;
    if (r > 0 && n <= 0) Die("pbitree_serverd exited before listening: " + out);
    if (n > 0) out.append(buf, static_cast<size_t>(n));
  }
  if (port_ <= 0) Die("bad pbitree_serverd banner: " + banner_);
}

Daemon::~Daemon() {
  if (pid_ > 0) Kill();
  if (out_fd_ >= 0) close(out_fd_);
}

void Daemon::Reap(int first_signal, int timeout_ms) {
  if (pid_ <= 0) return;
  kill(pid_, first_signal);
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1'000'000;
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (NowNs() > deadline) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    usleep(2000);
  }
  UntrackChild(pid_);
  pid_ = -1;
}

void Daemon::Stop() { Reap(SIGTERM, 20'000); }

void Daemon::Kill() { Reap(SIGKILL, 20'000); }

}  // namespace perfbench
