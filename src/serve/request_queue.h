#pragma once
// Bounded admission queue of the serving layer (docs/SERVING.md).
//
// Backpressure lives here: the queue holds at most `capacity` pending
// requests. try_enqueue() is the admission decision — a full queue rejects
// immediately with a machine-readable reason instead of buffering without
// bound ("load shedding"); enqueue_wait() is the cooperating-client variant
// that blocks until space frees (what the trace-replay binary uses, so a
// 10k-line trace streams through a 64-slot queue).
//
// Scheduling policy:
//   * Priority aging: a pending request's effective priority is
//     `priority + waited_ms / aging_interval_ms`, so low-priority work is
//     promoted the longer it waits and cannot starve under a steady
//     high-priority stream.
//   * Deadlines: a request whose deadline passes while still queued is
//     completed as kDeadlineExpired at pop time — it never wastes a
//     diffusion call. (In-flight requests are not interrupted; the deadline
//     bounds *queueing*, the admission knob bounds *load*.)
//   * Cancellation: cancel(id) removes a still-queued request and completes
//     its future as kCancelled.
//
// pop_batch() is the consumer side, called by the Server's dispatcher with
// its BatchPolicy (server.h): it returns the highest-effective-priority
// request plus every compatible (equal BatchKey) pending request up to a
// cap, waiting briefly for the batch to fill.
// Scheduling order affects *when* a request runs, never what it produces —
// payload determinism is the Server's per-request stream contract.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request.h"

namespace cp::serve {

using Clock = std::chrono::steady_clock;

/// A queued request plus its completion channel and admission bookkeeping.
struct PendingRequest {
  GenerationRequest request;
  int condition = 0;  // resolved style index
  std::promise<GenerationResult> promise;
  /// Invoked (if set) with the final result right before the promise is
  /// fulfilled, on whichever thread completed the request — the push-style
  /// completion channel of Server::submit's ResultCallback. Must not throw.
  std::function<void(const GenerationResult&)> on_result;
  /// Invoked (if set) right after the promise is fulfilled, on whichever
  /// thread completed the request — the Server's outstanding-work hook.
  std::function<void()> on_complete;
  Clock::time_point admitted_at{};
  std::uint64_t sequence = 0;  // FIFO tie-break within equal priority
};

/// Fulfill a pending request: set the promise, then fire on_complete.
void fulfill(PendingRequest& pending, GenerationResult result);

/// Admission decision. `reason` is one of "queue_full", "shutting_down"
/// (plus "invalid: ..." produced by the Server before the queue is reached).
struct Admission {
  bool admitted = false;
  std::string reason;
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity, double aging_interval_ms = 100.0)
      : capacity_(capacity), aging_interval_ms_(aging_interval_ms) {}
  ~RequestQueue();

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Non-blocking admission: reject with a reason when full or closed.
  Admission try_enqueue(PendingRequest pending);

  /// Blocking admission (backpressure): wait for a free slot. Only a closed
  /// queue rejects.
  Admission enqueue_wait(PendingRequest pending);

  /// Cancel a still-queued request: completes its future as kCancelled and
  /// frees the slot. False if `id` is not queued (unknown or in flight).
  bool cancel(const std::string& id);

  /// Consumer side. Blocks until at least one request is available (or the
  /// queue is closed and empty — then returns empty, the shutdown signal).
  /// Returns the best request by (effective priority, FIFO) plus up to
  /// `max_requests - 1` compatible pending requests, waiting at most
  /// `max_wait` for the batch to fill once the head is chosen. Requests
  /// whose deadline has passed are completed as kDeadlineExpired and
  /// consume no slot in the returned batch.
  std::vector<PendingRequest> pop_batch(int max_requests, std::chrono::microseconds max_wait);

  /// Stop admitting (try/wait enqueue reject with "shutting_down"); already
  /// queued requests still drain through pop_batch. Wakes all waiters.
  void close();

  bool closed() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  double effective_priority(const PendingRequest& p, Clock::time_point now) const;
  /// Complete + drop entries whose deadline has passed. Caller holds lock.
  void expire_locked(Clock::time_point now);
  void publish_depth_locked();

  const std::size_t capacity_;
  const double aging_interval_ms_;
  mutable std::mutex mutex_;
  std::condition_variable space_cv_;  // slot freed
  std::condition_variable work_cv_;   // request arrived / closed
  std::deque<PendingRequest> pending_;
  std::uint64_t next_sequence_ = 0;
  bool closed_ = false;
};

}  // namespace cp::serve
