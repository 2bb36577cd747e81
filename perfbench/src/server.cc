#include "perfbench/src/server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "perfbench/src/util.h"
#include "src/server/http_client.h"

namespace perfbench {

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string* error) {
  int out[2];
  if (pipe(out) != 0) {
    *error = "pipe failed";
    return false;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    close(out[0]);
    close(out[1]);
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];
  // First stdout line: "resest_server listening on 127.0.0.1:<port> (...)".
  std::string line;
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos && Clock::now() < give_up) {
    pollfd p{stdout_fd_, POLLIN, 0};
    if (poll(&p, 1, 200) <= 0) continue;
    char buf[256];
    const ssize_t got = read(stdout_fd_, buf, sizeof(buf));
    if (got <= 0) break;
    line.append(buf, static_cast<size_t>(got));
  }
  const size_t colon = line.find("127.0.0.1:");
  if (colon == std::string::npos) {
    *error = "server did not report its port (see " + log_path + ")";
    Stop();
    return false;
  }
  port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 10));
  return port_ != 0;
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  int status = 0;
  const auto give_up = Clock::now() + std::chrono::seconds(20);
  pid_t done = 0;
  while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool WaitHealthy(uint16_t port, double timeout_s) {
  const auto give_up =
      Clock::now() + std::chrono::microseconds(static_cast<int64_t>(timeout_s * 1e6));
  while (Clock::now() < give_up) {
    resest::HttpClient client;
    resest::HttpClientResponse response;
    if (client.Connect("127.0.0.1", port) && client.Get("/healthz", &response) &&
        response.status == 200) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace perfbench
