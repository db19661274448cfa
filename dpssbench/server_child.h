// A dpss-serverd child process owned by the benchmark: started with an
// ephemeral port, found through its port file, and killed and reaped by the
// destructor on every path, so no server outlives the benchmark. The child
// also asks the kernel to kill it if the benchmark dies first.

#ifndef DPSSBENCH_SERVER_CHILD_H_
#define DPSSBENCH_SERVER_CHILD_H_

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace dpssbench {

class ServerChild {
 public:
  ServerChild() = default;
  ~ServerChild() { Kill(); }
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  // Starts `binary args...` with stdout and stderr appended to `log_path`.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path) {
    Kill();
    std::vector<std::string> argv_s;
    argv_s.push_back(binary);
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int log_fd =
        open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log_fd < 0) return false;
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
      close(log_fd);
      return false;
    }
    if (pid == 0) {
      // Only async-signal-safe calls between fork and exec.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      dup2(log_fd, 1);
      dup2(log_fd, 2);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(log_fd);
    pid_ = pid;
    exit_status_ = 0;
    return true;
  }

  // Polls `port_file` until the server has written its port, or the child
  // exits, or `timeout_s` passes. Returns the port, or -1.
  int WaitForPort(const std::string& port_file, double timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (!Running()) return -1;
      std::ifstream f(port_file);
      std::string line;
      if (f && std::getline(f, line) && !f.eof()) {
        return std::atoi(line.c_str());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return -1;
  }

  bool Running() {
    if (pid_ <= 0) return false;
    int status = 0;
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      exit_status_ = status;
      return false;
    }
    return true;
  }

  // SIGTERM (graceful drain) and wait up to `timeout_s`; falls back to
  // SIGKILL. Returns true iff the server exited by itself with status 0.
  bool Terminate(double timeout_s) {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (!Running()) {
        return WIFEXITED(exit_status_) && WEXITSTATUS(exit_status_) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Kill();
    return false;
  }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  // How the last child ended, once Running() has seen it end.
  std::string Ended() const {
    if (WIFSIGNALED(exit_status_)) {
      return "was killed by signal " + std::to_string(WTERMSIG(exit_status_));
    }
    return "exited with status " + std::to_string(WEXITSTATUS(exit_status_));
  }

  // Resident set size of the child in bytes (0 if unreadable).
  uint64_t RssBytes() const {
    if (pid_ <= 0) return 0;
    std::ifstream f("/proc/" + std::to_string(pid_) + "/statm");
    uint64_t size = 0, resident = 0;
    if (!(f >> size >> resident)) return 0;
    return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  }

 private:
  pid_t pid_ = -1;
  int exit_status_ = 0;
};

}  // namespace dpssbench

#endif  // DPSSBENCH_SERVER_CHILD_H_
