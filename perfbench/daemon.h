// Runs the shipped pbitree_serverd as a child process: ephemeral port
// read from its startup banner, killed and reaped on every exit path.

#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <string>

namespace perfbench {

class Daemon {
 public:
  /// Starts `serverd` on the file-backed database `db` with port 0 and
  /// otherwise default settings, and waits for its banner. Dies on
  /// failure (after reaping the child).
  Daemon(const std::string& serverd, const std::string& db);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  const std::string& banner() const { return banner_; }

  /// SIGTERM (graceful drain), then reap; SIGKILL after 20 s.
  void Stop();
  /// SIGKILL and reap: the crash of the durability check.
  void Kill();

 private:
  void Reap(int first_signal, int timeout_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;  // daemon stdout, kept open so it never sees EPIPE
  int port_ = 0;
  std::string banner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
