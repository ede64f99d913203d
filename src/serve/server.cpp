#include "serve/server.h"

#include <algorithm>
#include <unordered_map>

#include "dataset/style.h"
#include "obs/registry.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/retry.h"

namespace cp::serve {

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

diffusion::SampleConfig sample_config(const GenerationRequest& r, int condition) {
  diffusion::SampleConfig sc;
  sc.rows = r.rows;
  sc.cols = r.cols;
  sc.condition = condition;
  sc.sample_steps = r.sample_steps;
  if (!r.schedule.empty()) sc.schedule_kind = diffusion::schedule_kind_from_string(r.schedule);
  sc.polish_rounds = r.polish_rounds;
  return sc;
}

}  // namespace

Server::Server(const diffusion::TopologyGenerator& generator,
               std::vector<const legalize::Legalizer*> legalizers, ServerConfig config)
    : config_(config),
      legalizers_(std::move(legalizers)),
      pool_(config.workers > 1 ? std::make_unique<util::ThreadPool>(config.workers) : nullptr),
      sampler_(generator, pool_.get()),
      cache_(config.cache_entries),
      queue_(config.queue_capacity, config.aging_interval_ms) {
  if (legalizers_.empty()) throw std::invalid_argument("Server: no legalizers");
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

Server::~Server() { shutdown(); }

Server::Submitted Server::submit_impl(GenerationRequest request, bool blocking,
                                      ResultCallback on_result) {
  Submitted out;
  std::promise<GenerationResult> promise;
  out.result = promise.get_future();
  // Immediate completions (rejections, cache hits, store reads) bypass the
  // queue, so the push-style callback fires here rather than in fulfill().
  auto finish = [&](GenerationResult result) {
    if (on_result) on_result(result);
    promise.set_value(std::move(result));
  };

  const std::string invalid = validate(request);
  if (!invalid.empty()) {
    obs::count("serve/rejected_invalid");
    out.reason = "invalid: " + invalid;
    GenerationResult result;
    result.id = request.id;
    result.status = RequestStatus::kRejected;
    result.reason = out.reason;
    finish(std::move(result));
    return out;
  }
  // Store-backed retrieval: answered synchronously from the attached
  // PatternStore's index — no sampling, no queue slot, and no cache entry
  // (the store may gain patterns between identical requests).
  if (request.source == "store") {
    if (config_.store == nullptr) {
      obs::count("serve/rejected_invalid");
      out.reason = "invalid: source 'store' but the server has no pattern store attached";
      GenerationResult result;
      result.id = request.id;
      result.status = RequestStatus::kRejected;
      result.reason = out.reason;
      finish(std::move(result));
      return out;
    }
    finish(store_lookup(request));
    out.admitted = true;
    return out;
  }

  const int condition = dataset::style_index(request.style);
  if (static_cast<std::size_t>(condition) >= legalizers_.size()) {
    obs::count("serve/rejected_invalid");
    out.reason = "invalid: no legalizer for style '" + request.style + "'";
    GenerationResult result;
    result.id = request.id;
    result.status = RequestStatus::kRejected;
    result.reason = out.reason;
    finish(std::move(result));
    return out;
  }

  // Fast path: a repeated request never touches the queue. Requests marked
  // no_cache (front-end worker-loss retries) skip the cache in both
  // directions — see request.h.
  const std::uint64_t key = request.content_hash();
  if (!request.no_cache) {
    if (auto payload = cache_.lookup(key)) {
      GenerationResult result;
      result.id = request.id;
      result.status = RequestStatus::kOk;
      result.payload = std::move(payload);
      result.cache_hit = true;
      finish(std::move(result));
      out.admitted = true;
      return out;
    }
  }

  PendingRequest pending;
  pending.request = std::move(request);
  pending.condition = condition;
  pending.promise = std::move(promise);
  pending.on_result = std::move(on_result);
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    ++outstanding_;
  }
  pending.on_complete = [this] {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    --outstanding_;
    drain_cv_.notify_all();
  };
  const Admission admission =
      blocking ? queue_.enqueue_wait(std::move(pending)) : queue_.try_enqueue(std::move(pending));
  out.admitted = admission.admitted;
  out.reason = admission.reason;
  return out;
}

GenerationResult Server::store_lookup(const GenerationRequest& request) {
  GenerationResult result;
  result.id = request.id;
  pattlib::Query query;
  if (request.style != "*") query.style_tag = request.style;
  // Guard rail: clip the read to store_result_cap so one greedy request
  // cannot materialize the whole library (docs/ROBUSTNESS.md).
  long long limit = request.count;
  if (config_.store_result_cap > 0 && limit > config_.store_result_cap) {
    limit = config_.store_result_cap;
    result.truncated = true;
    obs::count("serve/store_truncated");
  }
  query.limit = static_cast<int>(limit);
  util::Rng jitter(request.content_hash());
  util::RetryStats stats;
  try {
    auto payload = std::make_shared<GenerationPayload>();
    payload->patterns = util::retry_call(
        config_.store_retry, jitter,
        [&] {
          util::fault::point("pattlib/query");
          return config_.store->patterns(config_.store->query(query));
        },
        &stats);
    if (stats.attempts > 1) obs::count("serve/store_retries", stats.attempts - 1);
    result.status = static_cast<long long>(payload->patterns.size()) >= request.count
                        ? RequestStatus::kOk
                        : RequestStatus::kIncomplete;
    result.payload = std::move(payload);
    obs::count("serve/store_requests");
  } catch (const std::exception& e) {
    // A corrupt or faulting store fails THIS request; it never throws
    // through submit into the caller.
    if (stats.attempts > 1) obs::count("serve/store_retries", stats.attempts - 1);
    obs::count("serve/store_errors");
    result.status = RequestStatus::kFailed;
    result.reason = std::string("store error: ") + e.what();
  }
  return result;
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void Server::shutdown() {
  if (stopped_.exchange(true)) {
    if (dispatcher_.joinable()) dispatcher_.join();
    return;
  }
  queue_.close();  // reject new work; the dispatcher drains what is queued
  if (dispatcher_.joinable()) dispatcher_.join();
}

void Server::dispatch_loop() {
  for (;;) {
    std::vector<PendingRequest> batch = queue_.pop_batch(
        config_.batch.max_batch_requests, std::chrono::microseconds(config_.batch.max_wait_us));
    if (batch.empty()) return;  // queue closed and drained
    obs::count("serve/batches");
    obs::observe("serve/batch_requests", static_cast<double>(batch.size()));
    const auto popped = Clock::now();
    for (const PendingRequest& p : batch) {
      obs::observe("serve/queue_wait_s",
                   std::chrono::duration<double>(popped - p.admitted_at).count());
    }
    try {
      execute_batch(std::move(batch));
    } catch (const std::exception& e) {
      // Last-resort containment: execute_batch fails individual requests
      // internally, so reaching here is a bug — but the dispatcher must
      // outlive it either way, or every queued request behind this batch
      // hangs forever.
      obs::count("serve/batch_failures");
      CP_LOG_WARN << "serve: batch escaped execute_batch: " << e.what();
    }
  }
}

void Server::complete(PendingRequest pending, GenerationResult result) {
  switch (result.status) {
    case RequestStatus::kOk:
      obs::count("serve/requests_ok");
      break;
    case RequestStatus::kIncomplete:
      obs::count("serve/requests_incomplete");
      break;
    case RequestStatus::kFailed:
      obs::count("serve/requests_failed");
      break;
    default:
      break;
  }
  if (result.degraded) obs::count("serve/degraded");
  fulfill(pending, std::move(result));
}

Server::GuardedSamples Server::sample_jobs_guarded(
    const std::vector<diffusion::BatchSampler::SampleJob>& jobs) {
  GuardedSamples out;
  out.topologies.resize(jobs.size());
  out.degraded.assign(jobs.size(), 0);
  out.failed.assign(jobs.size(), 0);
  const diffusion::TopologyGenerator& primary = sampler_.generator();
  const diffusion::TopologyGenerator* fallback = config_.fallback;

  auto one = [&](long long i) {
    const auto idx = static_cast<std::size_t>(i);
    const auto& job = jobs[idx];
    // Jitter rng for the backoff sleeps only — the sample itself re-forks
    // job.root.fork(job.stream) on every attempt, so a retried draw is
    // bit-identical to an undisturbed first try.
    util::Rng jitter(job.root.fork(job.stream).next_u64());
    util::RetryStats stats;
    try {
      out.topologies[idx] = util::retry_call(
          config_.sample_retry, jitter,
          [&] {
            util::fault::point("denoiser/infer");
            util::Rng rng = job.root.fork(job.stream);
            return primary.sample(job.config, rng);
          },
          &stats);
      if (stats.attempts > 1) obs::count("serve/sample_retries", stats.attempts - 1);
      return;
    } catch (const std::exception&) {
      if (stats.attempts > 1) obs::count("serve/sample_retries", stats.attempts - 1);
    }
    if (fallback != nullptr) {
      try {
        util::Rng rng = job.root.fork(job.stream);
        out.topologies[idx] = fallback->sample(job.config, rng);
        out.degraded[idx] = 1;
        obs::count("serve/sample_fallbacks");
        return;
      } catch (const std::exception&) {
        // fall through: the sample is lost, not the request
      }
    }
    out.failed[idx] = 1;
    obs::count("serve/sample_failures");
  };

  const long long n = static_cast<long long>(jobs.size());
  const bool par = pool_ != nullptr && pool_->size() > 1 && primary.thread_safe() &&
                   (fallback == nullptr || fallback->thread_safe());
  if (par) {
    pool_->parallel_for(n, one);
  } else {
    for (long long i = 0; i < n; ++i) one(i);
  }
  return out;
}

void Server::execute_batch(std::vector<PendingRequest> batch) {
  const obs::Span span = obs::trace_scope("serve/batch");
  const auto batch_start = Clock::now();

  // Stage 0: late cache hits (payload landed after this request was
  // admitted) and in-batch dedup of identical content hashes.
  std::vector<Active> active;
  active.reserve(batch.size());
  std::unordered_map<std::uint64_t, int> leader_of;
  for (auto& pending : batch) {
    Active a;
    a.key = pending.request.content_hash();
    a.budget = config_.max_attempts_per_pattern * pending.request.count + 64;
    a.pending = std::move(pending);
    if (auto payload = a.pending.request.no_cache ? nullptr : cache_.lookup(a.key)) {
      GenerationResult result;
      result.id = a.pending.request.id;
      result.status = RequestStatus::kOk;
      result.payload = std::move(payload);
      result.cache_hit = true;
      result.queue_wait_ms = ms_between(a.pending.admitted_at, batch_start);
      result.total_ms = ms_between(a.pending.admitted_at, Clock::now());
      complete(std::move(a.pending), std::move(result));
      continue;
    }
    auto [it, inserted] = leader_of.try_emplace(a.key, static_cast<int>(active.size()));
    if (!inserted) {
      a.dedup_leader = it->second;
      obs::count("serve/dedup_hit");
    }
    active.push_back(std::move(a));
  }

  // Stage 1: generation rounds. Each round coalesces the outstanding need
  // of every unfilled leader into ONE guarded sampling fan-out (retry /
  // fallback per sample — see sample_jobs_guarded), legalizes every
  // candidate in parallel, then accepts per request in stream order. A
  // request whose round yields too few legal patterns simply re-enters the
  // next round with its stream cursor advanced — that is the legalization
  // retry path. Anything that still escapes fails this batch's requests as
  // kFailed below; it never kills the dispatcher.
  std::string batch_error;
  try {
  for (;;) {
    struct JobRange {
      int owner = 0;
      std::size_t begin = 0;
      long long want = 0;
    };
    std::vector<diffusion::BatchSampler::SampleJob> jobs;
    std::vector<JobRange> ranges;
    for (int i = 0; i < static_cast<int>(active.size()); ++i) {
      Active& a = active[i];
      if (a.done || a.dedup_leader >= 0) continue;
      const GenerationRequest& r = a.pending.request;
      const long long accepted = static_cast<long long>(a.payload.size());
      const long long remaining = r.count - accepted;
      if (remaining <= 0) {
        a.done = true;
        continue;
      }
      long long want = remaining;
      if (r.legalize) {
        // Oversample by the observed per-request rejection rate (at least
        // 2x the remaining need), clipped to the attempt budget — the same
        // policy as PatternLibrary::populate, applied per request so the
        // round count stays a pure function of the request's own streams.
        const double yield =
            a.attempts == 0 ? 0.5
                            : std::max(0.05, static_cast<double>(accepted) /
                                                 static_cast<double>(a.attempts));
        want = std::max<long long>(remaining * 2,
                                   static_cast<long long>(remaining / yield) + 1);
        want = std::min(want, a.budget - a.attempts);
      }
      if (want <= 0) {
        a.done = true;  // budget exhausted: completes as kIncomplete below
        continue;
      }
      ranges.push_back({i, jobs.size(), want});
      const util::Rng root(r.seed);
      for (long long k = 0; k < want; ++k) {
        jobs.push_back({sample_config(r, a.pending.condition), root, a.next_stream + k});
      }
      ++a.rounds;
    }
    if (jobs.empty()) break;

    obs::observe("serve/batch_samples", static_cast<double>(jobs.size()));
    GuardedSamples sampled;
    {
      const obs::Span sample_span = obs::trace_scope("sample");
      sampled = sample_jobs_guarded(jobs);
    }
    const std::vector<squish::Topology>& candidates = sampled.topologies;

    // Legalize every candidate of every legalizing owner, fanned out. A
    // legalization failure (fault point `legalize/run`) retries the SAME
    // candidate, so a transient fault leaves the payload bit-identical; an
    // exhausted budget drops the candidate (the request re-rounds).
    std::vector<legalize::LegalizeResult> legal(candidates.size());
    {
      const obs::Span legalize_span = obs::trace_scope("legalize");
      auto legalize_one = [&](long long j) {
        const auto idx = static_cast<std::size_t>(j);
        if (sampled.failed[idx] != 0) return;  // no candidate to legalize
        // Find the owning range (few ranges; linear scan is fine).
        for (const auto& range : ranges) {
          if (idx >= range.begin && idx < range.begin + static_cast<std::size_t>(range.want)) {
            const Active& a = active[static_cast<std::size_t>(range.owner)];
            const GenerationRequest& r = a.pending.request;
            if (r.legalize) {
              util::Rng jitter(r.seed ^ (0xc2b2ae3d27d4eb4fULL + idx));
              try {
                legal[idx] = util::retry_call(config_.legalize_retry, jitter, [&] {
                  util::fault::point("legalize/run");
                  return legalizers_[static_cast<std::size_t>(a.pending.condition)]->legalize(
                      candidates[idx], r.width_nm, r.height_nm);
                });
              } catch (const std::exception&) {
                obs::count("serve/legalize_faults");  // dropped; request re-rounds
              }
            }
            return;
          }
        }
      };
      const long long n = static_cast<long long>(candidates.size());
      if (pool_ != nullptr && pool_->size() > 1) {
        pool_->parallel_for(n, legalize_one);
      } else {
        for (long long j = 0; j < n; ++j) legalize_one(j);
      }
    }

    // Accept in stream order; unexamined surplus candidates do not count
    // against the budget (mirrors populate's accounting). A failed sample
    // consumes budget but delivers nothing, so a fully-failing backend
    // still terminates as kIncomplete instead of looping forever.
    for (const auto& range : ranges) {
      Active& a = active[static_cast<std::size_t>(range.owner)];
      const GenerationRequest& r = a.pending.request;
      for (long long k = 0; k < range.want; ++k) {
        if (static_cast<int>(a.payload.size()) >= r.count) break;
        const auto idx = range.begin + static_cast<std::size_t>(k);
        ++a.attempts;
        if (sampled.failed[idx] != 0) continue;
        if (!r.legalize) {
          a.payload.topologies.push_back(candidates[idx]);
          if (sampled.degraded[idx] != 0) a.degraded = true;
        } else if (legal[idx].ok()) {
          a.payload.patterns.push_back(std::move(*legal[idx].pattern));
          if (sampled.degraded[idx] != 0) a.degraded = true;
        } else {
          obs::count("serve/legalize_failures");
        }
      }
      a.next_stream += static_cast<std::uint64_t>(range.want);
      if (static_cast<int>(a.payload.size()) >= r.count) a.done = true;
    }
    obs::count("serve/rounds");
  }
  } catch (const std::exception& e) {
    batch_error = e.what();
    obs::count("serve/batch_failures");
    CP_LOG_WARN << "serve: generation failed for a batch of " << active.size()
                << " request(s): " << e.what();
  }

  // Failure publish: every request of this batch completes as kFailed with
  // the error as its reason. The dispatcher moves on to the next batch.
  if (!batch_error.empty()) {
    const auto fail_time = Clock::now();
    for (Active& a : active) {
      GenerationResult result;
      result.id = a.pending.request.id;
      result.status = RequestStatus::kFailed;
      result.reason = "internal error: " + batch_error;
      result.attempts = a.attempts;
      result.rounds = a.rounds;
      result.queue_wait_ms = ms_between(a.pending.admitted_at, batch_start);
      result.service_ms = ms_between(batch_start, fail_time);
      result.total_ms = ms_between(a.pending.admitted_at, fail_time);
      complete(std::move(a.pending), std::move(result));
    }
    return;
  }

  // Stage 2: publish. Leaders first (so followers can share their payload),
  // then dedup followers.
  const auto finish = Clock::now();
  std::vector<std::shared_ptr<const GenerationPayload>> published(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    Active& a = active[i];
    if (a.dedup_leader >= 0) continue;
    auto payload = std::make_shared<const GenerationPayload>(std::move(a.payload));
    published[i] = payload;
    const bool full = static_cast<int>(payload->size()) >= a.pending.request.count;
    // A degraded payload is never cached: a later identical request should
    // get a fresh shot at the primary generator, not a stale fallback.
    // no_cache requests (front-end worker-loss retries) never publish either.
    if (full && !a.degraded && !a.pending.request.no_cache) cache_.insert(a.key, payload);
    if (a.rounds > 1) obs::count("serve/legalize_retries", a.rounds - 1);

    GenerationResult result;
    result.id = a.pending.request.id;
    result.status = full ? RequestStatus::kOk : RequestStatus::kIncomplete;
    if (!full) result.reason = "attempt budget exhausted";
    result.degraded = a.degraded;
    result.payload = std::move(payload);
    result.attempts = a.attempts;
    result.rounds = a.rounds;
    result.queue_wait_ms = ms_between(a.pending.admitted_at, batch_start);
    result.service_ms = ms_between(batch_start, finish);
    result.total_ms = ms_between(a.pending.admitted_at, finish);
    complete(std::move(a.pending), std::move(result));
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    Active& a = active[i];
    if (a.dedup_leader < 0) continue;
    const auto& payload = published[static_cast<std::size_t>(a.dedup_leader)];
    const bool full = static_cast<int>(payload->size()) >= a.pending.request.count;
    GenerationResult result;
    result.id = a.pending.request.id;
    result.status = full ? RequestStatus::kOk : RequestStatus::kIncomplete;
    if (!full) result.reason = "attempt budget exhausted";
    result.degraded = active[static_cast<std::size_t>(a.dedup_leader)].degraded;
    result.payload = payload;
    result.deduped = true;
    result.queue_wait_ms = ms_between(a.pending.admitted_at, batch_start);
    result.service_ms = ms_between(batch_start, finish);
    result.total_ms = ms_between(a.pending.admitted_at, finish);
    complete(std::move(a.pending), std::move(result));
  }
}

}  // namespace cp::serve
