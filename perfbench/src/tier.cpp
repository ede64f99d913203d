#include "tier.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/net.h"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// waitpid with a deadline; false when the child is still running.
bool wait_for_exit(pid_t pid, int timeout_ms, int* status) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid || r < 0) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

Tier::Tier(const std::string& serve_bin, const std::string& workdir, int procs,
           const std::vector<std::string>& extra_args)
    : state_path_(workdir + "/tier_state.json"), procs_(procs) {
  ::unlink(state_path_.c_str());
  const std::string log_path = workdir + "/tier.log";
  std::vector<std::string> args = {serve_bin,      "--listen",      "--procs",
                                   std::to_string(procs), "--port", "0",
                                   "--state-file", state_path_};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                   0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const auto t0 = Clock::now();
  const int rc = ::posix_spawn(&pid_, serve_bin.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + serve_bin);
  }
  // Ready = the state file lists `procs` live workers with real pids.
  for (;;) {
    read_state();
    if (static_cast<int>(workers_.size()) == procs_) break;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("serving tier exited during start-up (see " + log_path + ")");
    }
    if (seconds_since(t0) > 120) {
      // No destructor runs for a half-built object: stop the tier here.
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      throw std::runtime_error("serving tier start-up timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  setup_s_ = seconds_since(t0);
}

Tier::~Tier() {
  if (pid_ <= 0) return;
  for (const pid_t w : workers_) ::kill(w, SIGKILL);
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

void Tier::read_state() {
  workers_.clear();
  std::ifstream in(state_path_);
  std::stringstream text;
  text << in.rdbuf();
  if (text.str().empty()) return;
  try {
    const cp::util::Json j = cp::util::Json::parse(text.str());
    if (j.get_int("alive", 0) != procs_) return;
    port_ = static_cast<int>(j.get_int("port", 0));
    std::vector<pid_t> pids;
    for (const cp::util::Json& p : j.at("workers").as_array()) {
      if (p.as_int() > 1) pids.push_back(static_cast<pid_t>(p.as_int()));
    }
    if (static_cast<int>(pids.size()) == procs_) workers_ = pids;
  } catch (const std::exception&) {
    // A partially visible file cannot happen (atomic rename), but a stale or
    // foreign one simply reads as "not ready yet".
  }
}

cp::util::Json Tier::command(const std::string& cmd) const {
  cp::util::net::Socket sock = cp::util::net::connect_tcp("127.0.0.1", port_, 5000);
  if (!sock.valid()) throw std::runtime_error("cannot connect to the serving tier");
  if (cp::util::net::send_all(sock.fd(), "{\"cmd\":\"" + cmd + "\"}\n", 5000) !=
      cp::util::net::IoStatus::kOk) {
    throw std::runtime_error("cannot send '" + cmd + "' to the serving tier");
  }
  cp::util::net::LineReader reader(sock.fd());
  std::string line;
  if (reader.read_line(&line, 30000) != cp::util::net::IoStatus::kOk) {
    throw std::runtime_error("no reply to '" + cmd + "' from the serving tier");
  }
  return cp::util::Json::parse(line);
}

double Tier::frontend_rss_mb() const { return peak_rss_mb(pid_); }

double Tier::workers_rss_mb() const {
  double total = 0;
  for (const pid_t w : workers_) total += peak_rss_mb(w);
  return total;
}

int Tier::shutdown() {
  if (pid_ <= 0) return -1;
  command("shutdown");
  int status = 0;
  if (!wait_for_exit(pid_, 30000, &status)) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return -1;
  }
  // The front-end drains and reaps its own workers before it exits.
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace perfbench
