#include "load.h"

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/json.h"
#include "util/net.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace net = cp::util::net;

constexpr int kReplyTimeoutS = 60;  // after the last send

struct Conn {
  net::Socket sock;
  net::LineBuffer in;
};

std::vector<Conn> connect_all(int port, int connections) {
  std::vector<Conn> conns(static_cast<std::size_t>(connections));
  for (Conn& c : conns) c.sock = net::connect_tcp("127.0.0.1", port, 5000);
  return conns;
}

std::string request_line(const std::string& fields, std::size_t i) {
  return "{\"id\":\"q" + std::to_string(i) + "\"," + fields + "}\n";
}

/// Parses one reply; returns its slot index, or -1 for a line that is not
/// a reply to this run.
long long parse_reply(const std::string& line, std::size_t n, Reply* r) {
  try {
    const cp::util::Json j = cp::util::Json::parse(line);
    const std::string id = j.get_string("id", "");
    if (id.size() < 2 || id[0] != 'q') return -1;
    const long long idx = std::atoll(id.c_str() + 1);
    if (idx < 0 || static_cast<std::size_t>(idx) >= n) return -1;
    r->answered = true;
    r->status = j.get_string("status", "");
    r->total_ms = j.get_number("total_ms", 0);
    r->queue_wait_ms = j.get_number("queue_wait_ms", 0);
    r->service_ms = j.get_number("service_ms", 0);
    r->attempts = j.get_int("attempts", 0);
    r->patterns = j.get_int("patterns", 0);
    r->cache_hit = j.get_bool("cache_hit", false);
    r->library_hash = std::strtoull(j.get_string("library_hash", "0").c_str(), nullptr, 16);
    return idx;
  } catch (const std::exception&) {
    return -1;
  }
}

/// Reads whatever is available on every connection and hands each complete
/// line to `on_line`. False on a transport error.
template <typename OnLine>
bool pump_replies(std::vector<Conn>& conns, int timeout_ms, OnLine&& on_line) {
  std::vector<struct pollfd> fds;
  for (const Conn& c : conns) fds.push_back({c.sock.fd(), POLLIN, 0});
  if (::poll(fds.data(), fds.size(), timeout_ms) < 0) return true;  // EINTR: retry later
  char buf[1 << 16];
  for (std::size_t k = 0; k < conns.size(); ++k) {
    if (fds[k].revents == 0) continue;
    std::size_t got = 0;
    const net::IoStatus st = net::read_some(conns[k].sock.fd(), buf, sizeof buf, &got);
    if (st == net::IoStatus::kClosed || st == net::IoStatus::kError) return false;
    conns[k].in.append(buf, got);
    std::string line;
    while (conns[k].in.next_line(&line)) on_line(line, Clock::now());
  }
  return true;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

LoadRun run_open_loop(int port, const std::vector<std::string>& lines, double rate,
                      int connections) {
  LoadRun run;
  const std::size_t n = lines.size();
  run.replies.resize(n);
  std::vector<Conn> conns = connect_all(port, connections);
  for (const Conn& c : conns) {
    if (!c.sock.valid()) {
      run.transport_ok = false;
      run.error = "connect failed";
      return run;
    }
  }
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  std::atomic<bool> sender_done{false};
  std::atomic<bool> transport_ok{true};
  Clock::time_point last_reply = t0;

  // Receiver: the second thread. Owns every Reply until it is joined.
  std::thread receiver([&] {
    std::size_t received = 0;
    Clock::time_point deadline = Clock::time_point::max();
    while (received < n && transport_ok.load()) {
      if (sender_done.load() && deadline == Clock::time_point::max()) {
        deadline = Clock::now() + std::chrono::seconds(kReplyTimeoutS);
      }
      if (Clock::now() > deadline) break;
      const bool ok = pump_replies(conns, 50, [&](const std::string& line, Clock::time_point at) {
        Reply r;
        const long long idx = parse_reply(line, n, &r);
        if (idx < 0 || run.replies[static_cast<std::size_t>(idx)].answered) return;
        r.latency_ms = ms_between(due(static_cast<std::size_t>(idx)), at);
        run.replies[static_cast<std::size_t>(idx)] = std::move(r);
        ++received;
        last_reply = at;
      });
      if (!ok) transport_ok.store(false);
    }
  });

  for (std::size_t i = 0; i < n && transport_ok.load(); ++i) {
    std::this_thread::sleep_until(due(i));
    const double late = ms_between(due(i), Clock::now());
    if (late > run.late_ms_max) run.late_ms_max = late;
    if (net::send_all(conns[i % conns.size()].sock.fd(), request_line(lines[i], i), 10000) !=
        net::IoStatus::kOk) {
      transport_ok.store(false);
    }
  }
  sender_done.store(true);
  receiver.join();
  run.wall_s = ms_between(t0, last_reply) / 1000.0;
  run.transport_ok = transport_ok.load();
  if (!run.transport_ok) run.error = "connection lost";
  return run;
}

LoadRun run_closed_loop(int port, const std::vector<std::string>& lines, int window,
                        int connections) {
  LoadRun run;
  const std::size_t n = lines.size();
  run.replies.resize(n);
  std::vector<Conn> conns = connect_all(port, connections);
  for (const Conn& c : conns) {
    if (!c.sock.valid()) {
      run.transport_ok = false;
      run.error = "connect failed";
      return run;
    }
  }
  std::vector<Clock::time_point> sent_at(n);
  std::size_t next = 0;
  std::size_t received = 0;
  auto send_next = [&]() -> bool {
    const std::size_t i = next++;
    sent_at[i] = Clock::now();
    return net::send_all(conns[i % conns.size()].sock.fd(), request_line(lines[i], i), 10000) ==
           net::IoStatus::kOk;
  };
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last_reply = t0;
  bool ok = true;
  while (ok && next < n && next < static_cast<std::size_t>(window)) ok = send_next();
  Clock::time_point last_progress = Clock::now();
  bool send_ok = true;
  while (ok && send_ok && received < n) {
    if (Clock::now() - last_progress > std::chrono::seconds(kReplyTimeoutS)) {
      run.error = "reply timeout";
      break;
    }
    ok = pump_replies(conns, 50, [&](const std::string& line, Clock::time_point at) {
      Reply r;
      const long long idx = parse_reply(line, n, &r);
      if (idx < 0 || run.replies[static_cast<std::size_t>(idx)].answered) return;
      r.latency_ms = ms_between(sent_at[static_cast<std::size_t>(idx)], at);
      run.replies[static_cast<std::size_t>(idx)] = std::move(r);
      ++received;
      last_reply = last_progress = at;
      if (next < n && !send_next()) send_ok = false;
      if (next == n && run.steady_s == 0) {
        run.steady_s = ms_between(t0, at) / 1000.0;
        run.steady_replies = static_cast<long long>(received);
      }
    });
  }
  run.wall_s = ms_between(t0, last_reply) / 1000.0;
  run.transport_ok = ok && send_ok && received == n;
  if (!ok || !send_ok) run.error = "connection lost";
  return run;
}

std::uint64_t combined_hash(const std::vector<std::uint64_t>& hashes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t v : hashes) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
