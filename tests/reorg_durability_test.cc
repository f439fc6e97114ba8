#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "core/ira.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

using ::brahma::testing::CollectReachable;
using ::brahma::testing::CountDanglingRefs;
using ::brahma::testing::CountErtDiscrepancies;
using ::brahma::testing::CountLiveObjects;
using ::brahma::testing::TotalLiveObjects;

// Deferred reorganization durability (DESIGN.md §15): migrations commit
// without forcing the log, the run forces once at its exit, and a
// checkpoint forces before it is published. These tests pin the contract:
// O(1) forces per run, OK means durable, a user commit on O_new makes the
// migration durable with it, and a crash before the barrier loses only
// the unforced suffix.

struct RunConfig {
  bool two_lock;
  uint32_t workers;
  const char* name;
};

const RunConfig kConfigs[] = {
    {false, 1, "basic"},
    {true, 1, "two-lock"},
    {false, 3, "basic x3"},
};

// LSN of the newest reorganizer commit record in the retained log.
Lsn LastReorgCommitLsn(const LogManager& log) {
  for (Lsn lsn = log.last_lsn(); lsn != kInvalidLsn; --lsn) {
    LogRecord rec;
    if (!log.GetRecord(lsn, &rec)) break;
    if (rec.type == LogRecordType::kCommit && rec.source == LogSource::kReorg) {
      return lsn;
    }
  }
  return kInvalidLsn;
}

class ReorgDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().Reset(); }
  void TearDown() override { FailPoints::Instance().Reset(); }

  // A fresh database holding a built graph and a database checkpoint.
  void Build() {
    db_ = std::make_unique<Database>(testing::SmallDbOptions(5));
    WorkloadParams params = testing::SmallWorkload(2);
    params.objects_per_partition = 85 * 2;
    BuiltGraph graph;
    GraphBuilder builder(db_.get());
    ASSERT_TRUE(builder.Build(params, &graph).ok());
    live_p1_ = CountLiveObjects(&db_->store(), 1);
    total_live_ = TotalLiveObjects(&db_->store());
    reachable_ = CollectReachable(&db_->store()).size();
    ASSERT_TRUE(db_->Checkpoint().ok());
  }

  // Global invariants after a run or a recovery; `in_p5` objects are
  // expected in the destination, the rest still in partition 1.
  void ExpectConsistent(uint64_t in_p5) {
    db_->analyzer().Sync();
    EXPECT_EQ(CountLiveObjects(&db_->store(), 5), in_p5);
    EXPECT_EQ(CountLiveObjects(&db_->store(), 1), live_p1_ - in_p5);
    EXPECT_EQ(TotalLiveObjects(&db_->store()), total_live_);
    EXPECT_EQ(CollectReachable(&db_->store()).size(), reachable_);
    EXPECT_EQ(CountDanglingRefs(&db_->store()), 0);
    EXPECT_EQ(CountErtDiscrepancies(&db_->store(), &db_->erts()), 0);
  }

  void CrashAndRecover() {
    db_->SimulateCrash();
    ASSERT_TRUE(db_->Recover().ok());
    EXPECT_EQ(db_->locks().NumLockedObjects(), 0u);
  }

  std::unique_ptr<Database> db_;
  uint64_t live_p1_ = 0;
  uint64_t total_live_ = 0;
  size_t reachable_ = 0;
};

TEST_F(ReorgDurabilityTest, RunForcesOnceNotOncePerMigration) {
  // With a 20 ms modeled force, one force per migration would cost
  // 170 x 20 ms; the run pays one force at its exit plus one per
  // checkpoint. No user load, so every batch is the reorganizer's.
  for (const RunConfig& cfg : kConfigs) {
    SCOPED_TRACE(cfg.name);
    Build();
    db_->log().set_flush_latency(std::chrono::milliseconds(20));
    IraOptions opt;
    opt.two_lock_mode = cfg.two_lock;
    opt.num_workers = cfg.workers;
    ReorgCheckpoint ckpt;
    opt.checkpoint_sink = &ckpt;
    opt.checkpoint_every = 50;
    CopyOutPlanner planner(5);
    ReorgStats stats;
    IraReorganizer ira(db_->reorg_context());
    const MetricsSnapshot before = db_->Metrics();
    ASSERT_TRUE(ira.Run(1, &planner, opt, &stats).ok());
    const uint64_t batches =
        db_->Metrics().Since(before).Get("wal.group_commit_batches");
    EXPECT_EQ(stats.objects_migrated, live_p1_);
    // 170 migrations, a checkpoint roughly every 50: at most 4 checkpoint
    // forces and the exit barrier.
    EXPECT_GE(batches, 1u);
    EXPECT_LE(batches, 5u);
    EXPECT_TRUE(ckpt.valid);
    // OK means durable: the stable log covers the run's last commit.
    EXPECT_GE(db_->log().stable_lsn(), LastReorgCommitLsn(db_->log()));
    EXPECT_EQ(db_->log().stable_lsn(), db_->log().last_lsn());
    ExpectConsistent(live_p1_);
    if (HasFatalFailure()) return;
  }
}

TEST_F(ReorgDurabilityTest, CrashRightAfterRunKeepsEveryMigration) {
  for (const RunConfig& cfg : kConfigs) {
    SCOPED_TRACE(cfg.name);
    Build();
    IraOptions opt;
    opt.two_lock_mode = cfg.two_lock;
    opt.num_workers = cfg.workers;
    opt.collect_garbage = true;
    CopyOutPlanner planner(5);
    ReorgStats stats;
    IraReorganizer ira(db_->reorg_context());
    ASSERT_TRUE(ira.Run(1, &planner, opt, &stats).ok());
    ASSERT_EQ(stats.objects_migrated, live_p1_);
    CrashAndRecover();
    // Nothing to fold: every migration committed and was forced.
    EXPECT_TRUE(FindInterruptedMigrations(&db_->store(), &db_->log()).empty());
    for (const auto& [old_id, new_id] : stats.RelocationSnapshot()) {
      EXPECT_FALSE(db_->store().Validate(old_id)) << old_id.ToString();
      EXPECT_TRUE(db_->store().Validate(new_id)) << new_id.ToString();
    }
    ExpectConsistent(live_p1_);
    if (HasFatalFailure()) return;
  }
}

// Calls a hook from the reorganizer thread as the nth migration copies
// its object (basic mode: after that object's exact parents are locked,
// before anything of it is logged).
class HookPlanner : public CopyOutPlanner {
 public:
  HookPlanner(uint32_t nth, std::function<void()> hook)
      : CopyOutPlanner(5), nth_(nth), hook_(std::move(hook)) {}
  void Transform(ObjectId, std::vector<ObjectId>*,
                 std::vector<uint8_t>*) override {
    if (++calls_ == nth_) hook_();
  }

 private:
  uint32_t nth_;
  uint32_t calls_ = 0;
  std::function<void()> hook_;
};

TEST_F(ReorgDurabilityTest, UserCommitOnMigratedObjectMakesMigrationDurable) {
  // Mid-run, a user transaction updates the O_new of an earlier
  // migration and commits (forced). Then the run's exit barrier crashes.
  // The stable log is a prefix: the user's force carried every migration
  // committed before it, so both the migration and the update survive —
  // and the migrations after it, never forced, are lost.
  Build();
  ReorgStats stats;
  ObjectId old_id, new_id;
  std::vector<uint8_t> written;
  size_t durable_migrations = 0;
  HookPlanner planner(/*nth=*/40, [&] {
    const auto relocated = stats.RelocationSnapshot();
    durable_migrations = relocated.size();
    for (const auto& [o, n] : relocated) {
      auto txn = db_->Begin();
      // The current migration holds its parents' locks, and some of
      // those are earlier O_news; skip them.
      if (!txn->LockWithTimeout(n, LockMode::kExclusive,
                                std::chrono::milliseconds(20))
               .ok()) {
        txn->Abort();
        continue;
      }
      std::vector<uint8_t> data;
      ASSERT_TRUE(txn->ReadData(n, &data).ok());
      for (uint8_t& b : data) b = static_cast<uint8_t>(~b);
      ASSERT_TRUE(txn->WriteData(n, data).ok());
      ASSERT_TRUE(txn->Commit().ok());
      old_id = o;
      new_id = n;
      written = data;
      break;
    }
    // The next force is the run's exit barrier: crash in it.
    ASSERT_TRUE(FailPoints::Instance()
                    .ArmFromString("wal:group-commit:after-force=crash")
                    .ok());
  });
  IraReorganizer ira(db_->reorg_context());
  Status s = ira.Run(1, &planner, IraOptions{}, &stats);
  ASSERT_TRUE(s.IsCrashed()) << s.ToString();
  ASSERT_TRUE(new_id.valid());
  ASSERT_EQ(stats.objects_migrated, live_p1_);
  FailPoints::Instance().Reset();

  CrashAndRecover();
  EXPECT_FALSE(db_->store().Validate(old_id));
  ASSERT_TRUE(db_->store().Validate(new_id));
  {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn->Lock(new_id, LockMode::kShared).ok());
    std::vector<uint8_t> data;
    ASSERT_TRUE(txn->ReadData(new_id, &data).ok());
    EXPECT_EQ(data, written);
    ASSERT_TRUE(txn->Commit().ok());
  }
  ExpectConsistent(durable_migrations);

  // Finish from scratch: the lost suffix migrates again.
  ReorgStats stats2;
  CopyOutPlanner fin(5);
  IraReorganizer ira2(db_->reorg_context());
  ASSERT_TRUE(ira2.Run(1, &fin, IraOptions{}, &stats2).ok());
  ExpectConsistent(live_p1_);
}

TEST_F(ReorgDurabilityTest, CrashBeforeBarrierDropsOnlyUnforcedSuffix) {
  // The third checkpoint's force crashes. The published checkpoint is the
  // second one, and it covers exactly the migrations that survive; the
  // ones committed after it were never forced and are lost. Resume then
  // finishes the partition.
  for (const RunConfig& cfg : kConfigs) {
    SCOPED_TRACE(cfg.name);
    Build();
    ASSERT_TRUE(FailPoints::Instance()
                    .ArmFromString("wal:group-commit:after-force=crash.nth(3)")
                    .ok());
    IraOptions opt;
    opt.two_lock_mode = cfg.two_lock;
    opt.num_workers = cfg.workers;
    ReorgCheckpoint ckpt;
    opt.checkpoint_sink = &ckpt;
    opt.checkpoint_every = 40;
    CopyOutPlanner planner(5);
    ReorgStats stats;
    IraReorganizer ira(db_->reorg_context());
    Status s = ira.Run(1, &planner, opt, &stats);
    ASSERT_TRUE(s.IsCrashed()) << s.ToString();
    FailPoints::Instance().Reset();
    ASSERT_TRUE(ckpt.valid);
    EXPECT_GT(stats.objects_migrated, ckpt.relocation.size());

    CrashAndRecover();
    for (const InterruptedMigration& m :
         FindInterruptedMigrations(&db_->store(), &db_->log())) {
      ASSERT_TRUE(
          CompleteInterruptedMigration(db_->reorg_context(), m.old_id, m.new_id)
              .ok());
    }
    for (const auto& [old_id, new_id] : ckpt.relocation) {
      EXPECT_FALSE(db_->store().Validate(old_id)) << old_id.ToString();
      EXPECT_TRUE(db_->store().Validate(new_id)) << new_id.ToString();
    }
    ExpectConsistent(ckpt.relocation.size());
    if (HasFatalFailure()) return;

    IraOptions fin;
    fin.two_lock_mode = cfg.two_lock;
    fin.num_workers = cfg.workers;
    ReorgStats stats2;
    IraReorganizer ira2(db_->reorg_context());
    ASSERT_TRUE(ira2.Resume(ckpt, &planner, fin, &stats2).ok());
    EXPECT_GE(db_->log().stable_lsn(), LastReorgCommitLsn(db_->log()));
    ExpectConsistent(live_p1_);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace brahma
