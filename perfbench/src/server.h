// The resest_server child process: spawn, readiness, shutdown.
#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` with `args` (stderr to `log_path`), reads the bound
  /// port from its first stdout line. The child dies with this process.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);
  /// SIGTERM (graceful drain), then SIGKILL after 20 s; waits for exit.
  /// Returns the exit status (-1 when killed or never started).
  int Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Polls GET /healthz until it answers 200; false after `timeout_s`.
bool WaitHealthy(uint16_t port, double timeout_s);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
