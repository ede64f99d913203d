#pragma once
// The pattern-generation server: request lifecycle around the diffusion
// stack (docs/SERVING.md).
//
//   submit() -> RequestQueue (bounded; admission control, priority aging,
//   deadlines) -> one dispatcher thread that pops microbatches (BatchPolicy),
//   coalesces compatible requests into single BatchSampler::sample_jobs
//   invocations fanned out on a util::ThreadPool, legalizes candidates in
//   parallel, retries streams that fail legalization, and fulfills the
//   request futures. An LRU PatternCache keyed by the request content hash
//   short-circuits repeated requests past the diffusion chain entirely.
//
// Determinism contract (audited by tests/serve/server_test.cpp and the
// `chatpattern_serve --workers` replay): request sample k is always drawn
// from Rng(request.seed).fork(next_stream + k) and candidates are accepted
// in stream order, so a request's payload is a pure function of its content
// fields. Worker count, queue order, batch composition, cache state and
// retry rounds change only *when* the answer arrives, never what it is.
//
// Fault tolerance (docs/ROBUSTNESS.md): sampling and legalization run
// behind retry-with-backoff; exhausted sampling falls back to
// ServerConfig::fallback (result marked degraded); an unexpected batch
// error fails the affected requests as kFailed — the dispatcher thread
// never dies with work queued behind it.
//
// Shutdown is a graceful drain: close admissions, finish everything already
// queued, then stop the dispatcher. The destructor does the same.

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "diffusion/batch_sampler.h"
#include "legalize/legalizer.h"
#include "pattlib/pattern_store.h"
#include "serve/cache.h"
#include "serve/request_queue.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace cp::serve {

/// Microbatching: the dispatcher turns queued requests into coalesced
/// batches for single BatchSampler invocations. A bigger batch amortizes
/// fan-out and keeps every worker busy, but waiting for it to fill delays
/// the requests already queued, so a batch is cut when (a)
/// `max_batch_requests` compatible requests are pending, or (b)
/// `max_wait_us` has elapsed since the dispatcher started assembling it,
/// whichever comes first. "Compatible" = equal BatchKey (request.h).
/// Batch composition affects only scheduling; every request's payload is
/// stream-determined.
struct BatchPolicy {
  int max_batch_requests = 8;    // cut at this many coalesced requests
  long long max_wait_us = 2000;  // ... or after this long assembling
};

struct ServerConfig {
  /// Fan-out width: the number of threads a batch computes on, the
  /// dispatcher included (util::ThreadPool counts compute threads). 1 =
  /// fully serial (no pool) — the determinism baseline.
  int workers = 1;
  std::size_t queue_capacity = 64;
  std::size_t cache_entries = 256;     // 0 disables the result cache
  BatchPolicy batch;                   // microbatching knobs
  double aging_interval_ms = 100.0;    // priority aging rate (see queue)
  /// Legalization retry budget: a request may consume up to
  /// `max_attempts_per_pattern * count + 64` sampled topologies before it
  /// completes as kIncomplete with whatever it has.
  long long max_attempts_per_pattern = 16;

  /// Degraded-mode serving (docs/ROBUSTNESS.md). A sample that throws
  /// (fault point `denoiser/infer`, or a real inference failure) is retried
  /// under `sample_retry` with the identical Rng stream, so a transient
  /// failure changes nothing about the payload. When the retry budget is
  /// exhausted and `fallback` is non-null, the sample is drawn from the
  /// fallback generator instead and the result is marked degraded=true
  /// (and never cached). With no fallback the sample is dropped, consuming
  /// attempt budget. Legalization failures (fault point `legalize/run`)
  /// retry the same candidate under `legalize_retry`. The dispatcher
  /// survives all of it: a request can fail (kFailed), the process cannot.
  util::RetryPolicy sample_retry;
  util::RetryPolicy legalize_retry;
  /// Borrowed, may be null; must outlive the server (e.g. the single-scale
  /// tabular sampler backing the cascade).
  const diffusion::TopologyGenerator* fallback = nullptr;

  /// Borrowed, may be null; must outlive the server. Enables requests with
  /// source="store": retrieval from a persistent pattern library instead of
  /// generation. Store requests are answered synchronously at submit (cheap
  /// const reads) and never enter the queue or the cache; with no store
  /// attached they are rejected. The store must not be mutated while the
  /// server is accepting requests (see pattlib/pattern_store.h thread model).
  const pattlib::PatternStore* store = nullptr;
  /// Store-retrieval guard rails (docs/ROBUSTNESS.md): the query limit is
  /// clipped to `store_result_cap` (result marked truncated when the cap
  /// binds; 0 = uncapped), the read runs under `store_retry` with the
  /// `pattlib/query` fault point, and an exhausted retry budget completes
  /// the request as kFailed (counted under `serve/store_errors`) instead of
  /// throwing through submit.
  long long store_result_cap = 1024;
  util::RetryPolicy store_retry;
};

class Server {
 public:
  /// `generator` and `legalizers[style]` are borrowed and must outlive the
  /// server. One legalizer per condition index (style).
  Server(const diffusion::TopologyGenerator& generator,
         std::vector<const legalize::Legalizer*> legalizers, ServerConfig config = {});
  ~Server();  // graceful drain, then stop

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission outcome. The future is always valid: rejected submissions
  /// carry a ready kRejected result, so replay loops handle every line
  /// uniformly.
  struct Submitted {
    bool admitted = false;
    std::string reason;  // rejection reason when !admitted
    std::future<GenerationResult> result;
  };

  /// Completion hook for push-style consumers (the multi-process worker
  /// loop): invoked exactly once per submitted request, on whichever thread
  /// completes it, right before the future becomes ready. Must not throw.
  using ResultCallback = std::function<void(const GenerationResult&)>;

  /// Blocking admission (backpressure): waits for a queue slot. Rejected
  /// only when the request is invalid or the server is shutting down.
  Submitted submit(GenerationRequest request, ResultCallback on_result = nullptr) {
    return submit_impl(std::move(request), true, std::move(on_result));
  }

  /// Non-blocking admission: a full queue rejects with reason "queue_full".
  Submitted try_submit(GenerationRequest request, ResultCallback on_result = nullptr) {
    return submit_impl(std::move(request), false, std::move(on_result));
  }

  /// Cancel a still-queued request (false once it is in flight or done).
  bool cancel(const std::string& id) { return queue_.cancel(id); }

  /// Block until every admitted request has completed. Does not close
  /// admissions — use between phases of a replay.
  void drain();

  /// Close admissions, drain, stop the dispatcher. Idempotent.
  void shutdown();

  const ServerConfig& config() const { return config_; }
  PatternCache& cache() { return cache_; }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  /// In-flight bookkeeping of one batched request during execute_batch.
  struct Active {
    PendingRequest pending;
    std::uint64_t key = 0;          // content hash
    int dedup_leader = -1;          // index of the identical in-batch twin
    GenerationPayload payload;
    std::uint64_t next_stream = 0;  // first unconsumed Rng stream
    long long attempts = 0;
    long long budget = 0;
    int rounds = 0;
    bool done = false;
    bool cache_hit = false;
    bool degraded = false;  // any accepted sample came from the fallback
  };

  /// Result of one guarded sampling fan-out: slot i holds jobs[i]'s
  /// topology plus whether it came from the fallback (degraded) or from
  /// nowhere at all (failed — retries and fallback both exhausted).
  struct GuardedSamples {
    std::vector<squish::Topology> topologies;
    std::vector<std::uint8_t> degraded;
    std::vector<std::uint8_t> failed;
  };

  Submitted submit_impl(GenerationRequest request, bool blocking, ResultCallback on_result);
  GenerationResult store_lookup(const GenerationRequest& request);
  void dispatch_loop();
  void execute_batch(std::vector<PendingRequest> batch);
  void complete(PendingRequest pending, GenerationResult result);
  GuardedSamples sample_jobs_guarded(const std::vector<diffusion::BatchSampler::SampleJob>& jobs);

  ServerConfig config_;
  std::vector<const legalize::Legalizer*> legalizers_;
  std::unique_ptr<util::ThreadPool> pool_;  // null when workers <= 1
  diffusion::BatchSampler sampler_;
  PatternCache cache_;
  RequestQueue queue_;

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  long long outstanding_ = 0;  // admitted but not yet completed

  std::atomic<bool> stopped_{false};
  std::thread dispatcher_;
};

}  // namespace cp::serve
