#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/latch.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"

namespace brahma {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndPredicates) {
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::NoSpace().IsNoSpace());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_FALSE(Status::TimedOut().ok());
}

TEST(StatusTest, MessagePreserved) {
  Status s = Status::InvalidArgument("bad slot");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad slot");
  EXPECT_EQ(s.message(), "bad slot");
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformInRange) {
  Random r(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.Uniform(7), 7u);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random r(5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[r.Uniform(10)];
  for (int c : counts) {
    EXPECT_GT(c, 8000);
    EXPECT_LT(c, 12000);
  }
}

TEST(RandomTest, BernoulliRate) {
  Random r(77);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(13);
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SampleStatsTest, Empty) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.Percentile(0.5), 0.0);
}

TEST(SampleStatsTest, MeanMaxMin) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_EQ(s.count(), 4);
}

TEST(SampleStatsTest, Stddev) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(SampleStatsTest, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_NEAR(s.Percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.Percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0.9), 90.1, 0.2);
}

TEST(SampleStatsTest, MeanOfTop) {
  SampleStats s;
  for (int i = 1; i <= 10; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.MeanOfTop(3), 9.0);  // (10+9+8)/3
  EXPECT_DOUBLE_EQ(s.MeanOfTop(100), 5.5);
}

TEST(SampleStatsTest, Merge) {
  SampleStats a, b;
  a.Add(1);
  a.Add(2);
  b.Add(3);
  b.Add(4);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
}

TEST(SharedLatchTest, ExclusiveBlocksReaders) {
  SharedLatch latch;
  latch.LockExclusive();
  std::atomic<bool> got{false};
  std::thread t([&]() {
    latch.LockShared();
    got.store(true);
    latch.UnlockShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  latch.UnlockExclusive();
  t.join();
  EXPECT_TRUE(got.load());
}

TEST(SharedLatchTest, ReadersShareWritersExclude) {
  SharedLatch latch;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<long> counter{0};
  const int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 2000; ++i) {
        if ((t + i) % 4 == 0) {
          latch.LockExclusive();
          long v = counter.load(std::memory_order_relaxed);
          counter.store(v + 1, std::memory_order_relaxed);
          latch.UnlockExclusive();
        } else {
          latch.LockShared();
          int c = concurrent.fetch_add(1) + 1;
          int m = max_concurrent.load();
          while (c > m && !max_concurrent.compare_exchange_weak(m, c)) {
          }
          concurrent.fetch_sub(1);
          latch.UnlockShared();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Writers were mutually exclusive: the non-atomic-style increment held.
  EXPECT_EQ(counter.load(), 8 * 2000 / 4);
  (void)max_concurrent;
}

TEST(SharedLatchTest, ReadersOverlap) {
  SharedLatch latch;
  latch.LockShared();
  std::atomic<bool> second_reader_in{false};
  std::thread t([&]() {
    latch.LockShared();  // must not block while another reader holds it
    second_reader_in.store(true);
    latch.UnlockShared();
  });
  t.join();  // finishes only if shared mode really is shared
  EXPECT_TRUE(second_reader_in.load());
  latch.UnlockShared();
}

TEST(StopwatchTest, Monotonic) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  double ms = sw.ElapsedMillis();
  EXPECT_GE(ms, 9.0);
  EXPECT_LT(ms, 5000.0);
  EXPECT_GE(sw.ElapsedMicros(), 9000);
}

TEST(MetricsSnapshotTest, SinceIsPerNameDifference) {
  MetricsSnapshot before;
  before.Add("wal.fsyncs", 3);
  before.Add("txn.deadlocks_detected", 10);
  MetricsSnapshot after;
  after.Add("wal.fsyncs", 8);
  after.Add("txn.deadlocks_detected", 10);
  const MetricsSnapshot window = after.Since(before);
  EXPECT_EQ(window.Get("wal.fsyncs"), 5u);
  EXPECT_EQ(window.Get("txn.deadlocks_detected"), 0u);
  std::vector<std::string> names;
  for (const auto& [name, value] : window) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"wal.fsyncs",
                                             "txn.deadlocks_detected"}));
}

TEST(MetricsSnapshotDeathTest, GetOfUnknownNameDies) {
  MetricsSnapshot m;
  m.Add("wal.fsyncs", 1);
  EXPECT_DEATH(m.Get("wal.fsync"), "unknown metric 'wal.fsync'");
}

}  // namespace
}  // namespace brahma
