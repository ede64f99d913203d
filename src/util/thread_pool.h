#pragma once
// Fixed-size thread pool with futures-based submission and a
// caller-participating parallel_for.
//
// Design notes (see DESIGN.md "Threading model"):
//   * The pool is deliberately work-stealing-free: a single mutex-guarded
//     FIFO queue. The tasks this library fans out (reverse-diffusion
//     samples, tile denoising jobs, legalization attempts) run for
//     milliseconds to seconds each, so queue contention is irrelevant and
//     the simple design is easy to reason about under TSAN.
//   * parallel_for claims indices from a shared atomic counter and the
//     *calling thread participates*, so a task may itself call parallel_for
//     on the same pool without deadlock: even if every worker is busy, the
//     nested caller drains its own index range.
//   * Determinism is the caller's job and follows one rule everywhere in
//     this codebase: work item i derives its own Rng via fork(i) from a
//     root seed and writes only to slot i of a preallocated output vector.
//     Which thread runs which index is scheduling noise; the output is not.
//   * wait_help() blocks on a future while running queued tasks, so chains
//     of submit()+wait from inside tasks cannot starve the pool.
//   * The destructor drains the queue: every submitted task runs before the
//     workers join, so futures obtained from submit() never become broken
//     promises.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cp::util {

class ThreadPool {
 public:
  /// `threads` <= 0 selects hardware_threads(). `threads` counts compute
  /// threads: parallel_for runs on at most size() threads, the calling
  /// thread included. A pool of size 1 still has one worker thread
  /// (submit() is asynchronous), but its parallel_for runs inline.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Number of concurrent hardware threads (>= 1).
  static int hardware_threads();

  /// Enqueue a nullary callable; the future carries its result or exception.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Run fn(i) for every i in [0, n) on at most size() threads. The calling
  /// thread participates, so this is safe to call from inside a pool task
  /// (nested parallelism) and degenerates to a plain loop when the pool has
  /// no spare workers. If any
  /// invocation throws, the exception thrown by the lowest index is
  /// rethrown after all indices finish or are abandoned.
  template <typename F>
  void parallel_for(long long n, F&& fn) {
    if (n <= 0) return;
    if (size() <= 1 || n == 1) {  // inline fast path, no synchronisation
      for (long long i = 0; i < n; ++i) fn(i);
      return;
    }
    auto state = std::make_shared<ForState>();
    state->total = n;
    auto drive = [state, &fn] {
      for (;;) {
        const long long i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= state->total) break;
        try {
          fn(i);
        } catch (...) {
          state->record_exception(i, std::current_exception());
        }
        state->finish_one();
      }
    };
    // The caller is one driver, so at most size() - 1 workers join it and
    // the loop runs on at most size() threads. Extra drivers that wake
    // after the counter is exhausted exit immediately.
    const int drivers = static_cast<int>(std::min<long long>(size() - 1, n - 1));
    for (int t = 0; t < drivers; ++t) enqueue(drive);
    drive();
    state->wait_all();
    state->rethrow_first();
  }

  /// Block until `future` is ready, running queued pool tasks while waiting.
  /// Use this instead of future.wait()/get() when waiting from inside a
  /// pool task, so a saturated pool keeps making progress.
  template <typename R>
  void wait_help(const std::future<R>& future) {
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!try_run_one()) std::this_thread::yield();
    }
  }

 private:
  struct ForState {
    std::atomic<long long> next{0};
    std::atomic<long long> finished{0};
    long long total = 0;
    std::mutex mutex;
    std::condition_variable done_cv;
    long long first_error_index = -1;
    std::exception_ptr first_error;

    void record_exception(long long index, std::exception_ptr error) {
      std::lock_guard<std::mutex> lock(mutex);
      if (first_error_index < 0 || index < first_error_index) {
        first_error_index = index;
        first_error = error;
      }
    }
    void finish_one() {
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        std::lock_guard<std::mutex> lock(mutex);  // pairs with wait_all
        done_cv.notify_all();
      }
    }
    void wait_all() {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [this] { return finished.load(std::memory_order_acquire) == total; });
    }
    void rethrow_first() {
      if (first_error) std::rethrow_exception(first_error);
    }
  };

  void enqueue(std::function<void()> task);
  bool try_run_one();
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace cp::util
