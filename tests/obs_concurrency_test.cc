// Thread-safety and escaping tests for the observability layer:
// many-threaded counter/span/flush hammering (run under
// -DCSPDB_SANITIZE=thread in CI), the sequential trace-tid registry, and
// metrics-JSON escaping of hostile metric names.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cspdb::obs {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ObsConcurrency, CountersSumExactlyAcrossThreads) {
  Counter& counter = MetricsRegistry::Global().GetCounter(
      "test.concurrency.counter");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kIncrements);
}

TEST(ObsConcurrency, RegistryRegistrationRacesAreSafe) {
  // All threads race to register the same names and distinct names while
  // another thread snapshots. TSan verifies the locking; the assertion
  // verifies handles are stable and counts exact.
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 200; ++i) {
        MetricsRegistry::Global()
            .GetCounter("test.concurrency.shared")
            .Add(1);
        MetricsRegistry::Global()
            .GetCounter("test.concurrency.t" + std::to_string(t))
            .Add(1);
        MetricsRegistry::Global()
            .GetGauge("test.concurrency.gauge")
            .UpdateMax(i);
        MetricsRegistry::Global()
            .GetTimer("test.concurrency.timer")
            .Record(1);
        if (i % 50 == 0) (void)MetricsRegistry::Global().Snapshot();
      }
    });
  }
  MetricsRegistry::Global().GetCounter("test.concurrency.shared").Reset();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("test.concurrency.shared").value(),
      kThreads * 200);
}

TEST(ObsConcurrency, HostileMetricNamesRoundTripAsValidJson) {
  // Quote, backslash, control characters, DEL, and a negative signed char
  // (UTF-8 continuation byte) — each must escape rather than corrupt.
  const std::string hostile[] = {
      "quote\"name",           "back\\slash",
      "tab\tname",             "newline\nname",
      std::string("nul\0x", 5), "del\x7fname",
      "utf8\xc3\xa9",
  };
  for (const std::string& name : hostile) {
    MetricsRegistry::Global().GetCounter("hostile." + name).Add(1);
  }
  const std::string json = MetricsRegistry::Global().SnapshotJson();
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("tab\\u0009name"), std::string::npos);
  EXPECT_NE(json.find("newline\\u000aname"), std::string::npos);
  EXPECT_NE(json.find("nul\\u0000x"), std::string::npos);
  EXPECT_NE(json.find("del\\u007fname"), std::string::npos);
  // The UTF-8 bytes pass through unescaped (snprintf %x must not
  // sign-extend them into eight-digit garbage).
  EXPECT_NE(json.find("utf8\xc3\xa9"), std::string::npos);
  EXPECT_EQ(json.find("ffffff"), std::string::npos);
  // No raw control bytes survive inside the JSON.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte in JSON: " << static_cast<int>(c);
  }
}

TEST(ObsConcurrency, TraceTidsAreSequentialAndDistinct) {
  constexpr int kThreads = 8;
  std::vector<uint64_t> tids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &tids] {
      uint64_t first = TraceSession::CurrentTid();
      uint64_t second = TraceSession::CurrentTid();
      EXPECT_EQ(first, second);  // stable per thread
      tids[t] = first;
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<uint64_t> distinct(tids.begin(), tids.end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads));
  // Small sequential ids, not thread-id hashes: with at most a few
  // thousand threads ever created in the test binary, every id is tiny.
  for (uint64_t tid : tids) EXPECT_LT(tid, 100000u);
}

TEST(ObsConcurrency, ConcurrentSpansAndFlushesProduceValidTrace) {
  const std::string path = ::testing::TempDir() + "/obs_concurrency.trace";
  TraceSession& session = TraceSession::Global();
  session.Start(path);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &session] {
      TraceSession::SetCurrentThreadName(
          ("test.obs_concurrency." + std::to_string(t)).c_str());
      for (int i = 0; i < 200; ++i) {
        session.BeginSpan("obs_concurrency.span");
        session.Instant("obs_concurrency.tick");
        session.CounterValue("obs_concurrency.value", i);
        session.EndSpan("obs_concurrency.span");
        if (i % 64 == 0) session.Flush();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  session.Stop();
  const std::string trace = ReadFileOrDie(path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
  EXPECT_NE(trace.find("test.obs_concurrency.0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsConcurrency, SetCurrentThreadNameSurvivesRestartAndEscapes) {
  TraceSession::SetCurrentThreadName("main \"quoted\\track\"");
  const std::string path = ::testing::TempDir() + "/obs_thread_name.trace";
  TraceSession& session = TraceSession::Global();
  session.Start(path);
  session.Instant("obs_thread_name.tick");
  session.Stop();
  const std::string trace = ReadFileOrDie(path);
  // The registered name shows up escaped in the metadata event even
  // though it was set before Start().
  EXPECT_NE(trace.find("main \\\"quoted\\\\track\\\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsConcurrency, PoolWorkersRegisterStableTraceNames) {
  const std::string path = ::testing::TempDir() + "/obs_worker_names.trace";
  TraceSession& session = TraceSession::Global();
  session.Start(path);
  exec::ThreadPool pool(3);
  {
    exec::TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i) {
      group.Run([&session] { session.Instant("obs_worker.tick"); });
    }
  }
  session.Stop();
  const std::string trace = ReadFileOrDie(path);
  EXPECT_NE(trace.find("exec.worker."), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cspdb::obs
