#pragma once
// One launch of the multi-process serving tier (`chatpattern_serve --listen`)
// driven strictly from the outside: spawn, wait until its state file reports
// every worker alive, talk NDJSON over TCP, read /proc for memory, shut down.

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

class Tier {
 public:
  /// Spawns `serve_bin --listen --procs N [extra_args]` with its output in
  /// `workdir`/tier.log and blocks until every worker is alive. Throws on
  /// failure.
  Tier(const std::string& serve_bin, const std::string& workdir, int procs,
       const std::vector<std::string>& extra_args);
  /// Kills and reaps a tier that was not shut down cleanly.
  ~Tier();
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  double setup_s() const { return setup_s_; }
  int port() const { return port_; }

  /// One control command over a fresh connection ({"cmd":...}); returns the
  /// reply object.
  cp::util::Json command(const std::string& cmd) const;

  /// Peak resident set (VmHWM) in MB of the front-end and of the workers.
  double frontend_rss_mb() const;
  double workers_rss_mb() const;

  /// Sends shutdown and waits for the front-end's exit code.
  int shutdown();

 private:
  void read_state();

  std::string state_path_;
  pid_t pid_ = -1;
  int port_ = 0;
  int procs_ = 0;
  std::vector<pid_t> workers_;
  double setup_s_ = 0;
};

/// VmHWM of `pid` in MB (0 when unreadable).
double peak_rss_mb(pid_t pid);

}  // namespace perfbench
