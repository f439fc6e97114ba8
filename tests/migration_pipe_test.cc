#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/migration_pipe.h"

namespace brahma {
namespace {

using Next = MigrationPipe::Next;

ObjectId Oid(uint64_t offset) { return ObjectId(1, offset); }

// Claim-aware wakeup: a deferred item wakes exactly when its blocking
// claim drops — not on an unrelated release, not on a timer.
TEST(MigrationPipeTest, ClaimParkWakesExactlyOnBlockerRelease) {
  MigrationPipe::Options opt;
  opt.workers = 2;
  std::vector<ObjectId> objs = {Oid(10), Oid(20)};
  MigrationPipe pipe(objs, opt);

  MigrationPipe::Item a, b;
  ASSERT_EQ(pipe.Pop(&a), Next::kItem);
  ASSERT_EQ(pipe.Pop(&b), Next::kItem);

  // a hit a footprint claim anchored at blocker; park it. b stays in
  // flight (modeling the worker that holds the blocking claim), so the
  // drained failsafe cannot promote a early.
  const ObjectId blocker = Oid(99);
  const ObjectId other = Oid(77);
  pipe.ParkOnClaim(blocker, a.oid, a.attempt);
  EXPECT_EQ(pipe.parked_on_claims(), 1u);

  std::atomic<bool> woke{false};
  MigrationPipe::Item got;
  std::thread waiter([&] {
    MigrationPipe::Next n = pipe.Pop(&got);
    ASSERT_EQ(n, Next::kItem);
    woke.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load()) << "woke with no release at all";

  // Releasing an *unrelated* claim must not wake the parked item.
  pipe.OnClaimReleased(other);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load()) << "woke on an unrelated claim release";
  EXPECT_EQ(pipe.claim_wakeups(), 0u);
  EXPECT_EQ(pipe.parked_on_claims(), 1u);

  // Releasing the actual blocker wakes it immediately.
  pipe.OnClaimReleased(blocker);
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(got.oid, a.oid);
  EXPECT_EQ(got.attempt, a.attempt);
  EXPECT_EQ(pipe.claim_wakeups(), 1u);
  EXPECT_EQ(pipe.parked_on_claims(), 0u);

  pipe.Done();  // a (re-popped by the waiter)
  pipe.Done();  // b
  MigrationPipe::Item end;
  EXPECT_EQ(pipe.Pop(&end), Next::kDrained);
}

// Multiple items parked under the same blocker all wake on one release;
// items under a different blocker stay parked.
TEST(MigrationPipeTest, ReleaseWakesAllWaitersOfThatBlockerOnly) {
  MigrationPipe::Options opt;
  opt.workers = 3;
  std::vector<ObjectId> objs = {Oid(10), Oid(20), Oid(30)};
  MigrationPipe pipe(objs, opt);

  MigrationPipe::Item i1, i2, i3;
  ASSERT_EQ(pipe.Pop(&i1), Next::kItem);
  ASSERT_EQ(pipe.Pop(&i2), Next::kItem);
  ASSERT_EQ(pipe.Pop(&i3), Next::kItem);

  const ObjectId x = Oid(98);
  const ObjectId y = Oid(99);
  pipe.ParkOnClaim(x, i1.oid, i1.attempt);
  pipe.ParkOnClaim(x, i2.oid, i2.attempt);
  pipe.ParkOnClaim(y, i3.oid, i3.attempt);
  EXPECT_EQ(pipe.parked_on_claims(), 3u);

  pipe.OnClaimReleased(x);
  EXPECT_EQ(pipe.claim_wakeups(), 2u);
  EXPECT_EQ(pipe.parked_on_claims(), 1u);

  MigrationPipe::Item a, b;
  ASSERT_EQ(pipe.Pop(&a), Next::kItem);
  ASSERT_EQ(pipe.Pop(&b), Next::kItem);
  EXPECT_TRUE((a.oid == i1.oid && b.oid == i2.oid) ||
              (a.oid == i2.oid && b.oid == i1.oid));

  pipe.OnClaimReleased(y);
  EXPECT_EQ(pipe.claim_wakeups(), 3u);
  MigrationPipe::Item c;
  ASSERT_EQ(pipe.Pop(&c), Next::kItem);
  EXPECT_EQ(c.oid, i3.oid);

  pipe.Done();
  pipe.Done();
  pipe.Done();
  MigrationPipe::Item end;
  EXPECT_EQ(pipe.Pop(&end), Next::kDrained);
}

// Standalone-pipe failsafe: if every in-flight worker is gone and only
// claim-parked items remain (a release that never arrives), Pop promotes
// them rather than deadlocking.
TEST(MigrationPipeTest, StrandedClaimWaitersArePromotedNotDeadlocked) {
  MigrationPipe::Options opt;
  opt.workers = 1;
  std::vector<ObjectId> objs = {Oid(10)};
  MigrationPipe pipe(objs, opt);

  MigrationPipe::Item it;
  ASSERT_EQ(pipe.Pop(&it), Next::kItem);
  pipe.ParkOnClaim(Oid(99), it.oid, it.attempt);

  // No one holds anything; a fresh Pop must hand the item back.
  MigrationPipe::Item again;
  ASSERT_EQ(pipe.Pop(&again), Next::kItem);
  EXPECT_EQ(again.oid, it.oid);
  pipe.Done();
  MigrationPipe::Item end;
  EXPECT_EQ(pipe.Pop(&end), Next::kDrained);
}

// Worker cap (ReorgThrottle's lever): cap 0 parks every worker even with
// ready work; raising the cap resumes them.
TEST(MigrationPipeTest, CapZeroParksEveryWorkerUntilRaised) {
  MigrationPipe::Options opt;
  opt.workers = 2;
  std::vector<ObjectId> objs = {Oid(10), Oid(20)};
  MigrationPipe pipe(objs, opt);
  pipe.SetWorkerCap(0);

  std::atomic<int> popped{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&] {
      MigrationPipe::Item it;
      if (pipe.Pop(&it) == Next::kItem) {
        popped.fetch_add(1);
        pipe.Done();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(popped.load(), 0) << "a worker popped under cap 0";

  pipe.SetWorkerCap(2);
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(popped.load(), 2);
  MigrationPipe::Item end;
  EXPECT_EQ(pipe.Pop(&end), Next::kDrained);
}

// A checkpoint barrier completes while workers are capped: the parked
// worker wakes for the rendezvous (every active worker must arrive), then
// the run drains normally.
TEST(MigrationPipeTest, CheckpointBarrierCompletesWhileCapped) {
  MigrationPipe::Options opt;
  opt.workers = 2;
  opt.checkpoint_every = 1;
  std::vector<ObjectId> objs = {Oid(10), Oid(20)};
  MigrationPipe pipe(objs, opt);
  pipe.SetWorkerCap(1);

  std::atomic<int> cuts{0};
  std::atomic<int> migrated{0};
  auto worker = [&] {
    for (;;) {
      MigrationPipe::Item it;
      const Next n = pipe.Pop(&it);
      if (n == Next::kDrained || n == Next::kStopped) break;
      if (n == Next::kBarrier) {
        if (pipe.ArriveBarrier()) {
          cuts.fetch_add(1);
          pipe.BarrierCut(/*next_target=*/100);
        }
        continue;
      }
      pipe.Done();
      if (pipe.CheckpointDue(migrated.fetch_add(1) + 1)) {
        pipe.RequestCheckpoint();
      }
    }
    pipe.WorkerExit();
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_EQ(cuts.load(), 1);
  EXPECT_EQ(migrated.load(), 2);
  EXPECT_FALSE(pipe.stopped());
}

// Stop() wins over parking: a worker parked by the cap must observe Stop
// and exit.
TEST(MigrationPipeTest, StopWakesParkedWorker) {
  MigrationPipe::Options opt;
  opt.workers = 2;
  std::vector<ObjectId> objs = {Oid(10), Oid(20)};
  MigrationPipe pipe(objs, opt);
  pipe.SetWorkerCap(1);

  std::atomic<bool> stopped_seen{false};
  std::thread w2([&] {
    MigrationPipe::Item it;
    if (pipe.Pop(&it) == Next::kStopped) stopped_seen.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pipe.Stop(Status::Crashed("test stop"));
  w2.join();
  EXPECT_TRUE(stopped_seen.load());
  EXPECT_TRUE(pipe.result().IsCrashed());
}

}  // namespace
}  // namespace brahma
