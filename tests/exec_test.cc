// The execution substrate: work-stealing thread pool, fork/join task
// groups, and cooperative cancellation tokens.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "exec/cancellation.h"
#include "exec/thread_pool.h"

namespace cspdb::exec {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Run([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, TaskGroupTasksMaySpawnIntoSameGroup) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) {
    group.Run([&] {
      done.fetch_add(1, std::memory_order_relaxed);
      group.Run([&] { done.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, NestedTaskGroupsInsideTasksDoNotDeadlock) {
  // Each task opens and waits on its own group; Wait() helps run pending
  // pool tasks, so a small pool never blocks with every worker waiting.
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  TaskGroup group(&pool);
  for (int t = 0; t < 8; ++t) {
    group.Run([&] {
      TaskGroup inner(&pool);
      for (int i = 0; i < 10; ++i) {
        inner.Run([&] { total.fetch_add(5, std::memory_order_relaxed); });
      }
      inner.Wait();
    });
  }
  group.Wait();
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPool, GlobalPoolExistsAndWorks) {
  std::atomic<int> done{0};
  {
    TaskGroup group(&ThreadPool::Global());
    for (int i = 0; i < 16; ++i) {
      group.Run([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(done.load(), 16);
  EXPECT_GE(ThreadPool::Global().num_threads(), 1);
}

TEST(Cancellation, RequestCancelLatches) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());  // stays set
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, DeadlineFires) {
  CancellationToken token;
  token.CancelAfter(std::chrono::milliseconds(5));
  EXPECT_FALSE(token.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, TokenStopsPoolWorkCooperatively) {
  ThreadPool pool(4);
  CancellationToken token;
  std::atomic<int64_t> done{0};
  token.RequestCancel();
  {
    TaskGroup group(&pool);
    for (int chunk = 0; chunk < 100; ++chunk) {
      group.Run([&] {
        if (token.cancelled()) return;  // kernels poll at chunk granularity
        done.fetch_add(10, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(done.load(), 0);
}

}  // namespace
}  // namespace cspdb::exec
