#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cp::util {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, DefaultSizeIsHardware) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](long long i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](long long) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](long long i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRunsOnAtMostPoolSizeThreads) {
  // A pool of N counts compute threads: the caller plus N - 1 workers. The
  // indices last long enough that every enqueued driver gets to claim some.
  ThreadPool pool(2);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  pool.parallel_for(64, [&](long long) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromSubmit) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool must stay usable after a task throws.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ExceptionPropagatesLowestIndexFromParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(100, [&](long long i) {
      if (i == 13 || i == 77) throw std::invalid_argument("index " + std::to_string(i));
      completed.fetch_add(1);
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "index 13") << "lowest failing index wins";
  }
  EXPECT_EQ(completed.load(), 98) << "non-throwing indices still run";
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // fewer workers than outer tasks: must not deadlock
  std::atomic<long long> sum{0};
  pool.parallel_for(8, [&](long long outer) {
    pool.parallel_for(16, [&](long long inner) { sum.fetch_add(outer * 16 + inner); });
  });
  long long expect = 0;
  for (long long i = 0; i < 8 * 16; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPoolTest, NestedSubmitWithWaitHelp) {
  ThreadPool pool(2);
  // Every outer task submits a child and waits for it with wait_help. With
  // plain future.get() this saturates a 2-worker pool (both workers block on
  // children that can never be scheduled); wait_help runs queued tasks
  // while waiting, so it must complete.
  std::vector<std::future<int>> outers;
  for (int i = 0; i < 8; ++i) {
    outers.push_back(pool.submit([&pool, i] {
      auto child = pool.submit([i] { return i * 10; });
      pool.wait_help(child);
      return child.get() + 1;
    }));
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(outers[static_cast<std::size_t>(i)].get(), i * 10 + 1);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedWork) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      }));
    }
    // Destructor runs here with most of the queue still pending.
  }
  EXPECT_EQ(ran.load(), 64) << "destructor must finish queued tasks, not drop them";
  for (auto& future : futures) EXPECT_NO_THROW(future.get()) << "no broken promises";
}

TEST(ThreadPoolTest, ManyConcurrentParallelForCallers) {
  // Stress: several threads all issuing parallel_for on one pool.
  ThreadPool pool(4);
  std::atomic<long long> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        pool.parallel_for(50, [&](long long) { total.fetch_add(1); });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 4LL * 20 * 50);
}

}  // namespace
}  // namespace cp::util
