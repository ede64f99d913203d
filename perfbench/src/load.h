#pragma once
// The load generator: one process, at most two threads and two TCP
// connections to the serving tier. Request lines carry unique ids "q<i>";
// replies are matched back to their slot by id.
//
//   open loop   request i is due at t0 + i/rate whatever the tier does; its
//               latency runs from that due time (no coordinated omission),
//               and the sender's lateness is reported.
//   closed loop `window` requests are kept outstanding; a reply releases
//               the next request.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Reply {
  bool answered = false;
  std::string status;  // "ok", "failed", "rejected", ...
  double latency_ms = 0;  // client clock: due (open) or sent (closed) -> reply
  double total_ms = 0;    // the tier's own fields
  double queue_wait_ms = 0;
  double service_ms = 0;
  long long attempts = 0;
  long long patterns = 0;
  bool cache_hit = false;
  std::uint64_t library_hash = 0;
};

struct LoadRun {
  std::vector<Reply> replies;  // one per request line, in input order
  double wall_s = 0;           // first send -> last reply
  double late_ms_max = 0;      // open loop: worst sender lateness
  // Closed loop: replies received while the window was still full (before
  // the last request went out) and the time that took — the sustained rate
  // without the drain, whose length depends on how the last requests
  // happened to spread across shards.
  long long steady_replies = 0;
  double steady_s = 0;
  bool transport_ok = true;
  std::string error;
};

/// `lines[i]` is a request object without its id; the client adds "q<i>".
LoadRun run_open_loop(int port, const std::vector<std::string>& lines, double rate,
                      int connections);
LoadRun run_closed_loop(int port, const std::vector<std::string>& lines, int window,
                        int connections);

/// FNV-1a over the library hashes in input order — the same combination
/// `chatpattern_serve` prints as combined_hash.
std::uint64_t combined_hash(const std::vector<std::uint64_t>& hashes);

}  // namespace perfbench
