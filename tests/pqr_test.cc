#include "core/pqr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/failpoint.h"
#include "core/database.h"
#include "core/offline_reorg.h"
#include "tests/test_util.h"
#include "workload/driver.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

class PqrTest : public ::testing::Test {
 protected:
  PqrTest() : db_(testing::SmallDbOptions(5)) {}

  void BuildGraph(uint32_t partitions = 3) {
    params_ = testing::SmallWorkload(partitions);
    GraphBuilder builder(&db_);
    ASSERT_TRUE(builder.Build(params_, &graph_).ok());
  }

  Database db_;
  WorkloadParams params_;
  BuiltGraph graph_;
};

TEST_F(PqrTest, QuiescentPqrMigratesEverything) {
  BuildGraph();
  CopyOutPlanner planner(5);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunPqr(1, &planner, PqrOptions{}, &stats).ok());
  EXPECT_EQ(stats.objects_migrated, params_.objects_per_partition);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), 1), 0u);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), 5),
            params_.objects_per_partition);
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db_.store(), &db_.erts()), 0);
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
}

TEST_F(PqrTest, LocksManyObjects) {
  // PQR's defining trait: it locks a significant portion of the database
  // (every external parent + every object of the partition), unlike IRA.
  BuildGraph();
  CopyOutPlanner planner(5);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunPqr(1, &planner, PqrOptions{}, &stats).ok());
  // At least the directory object and the glue parents were all locked
  // at once, plus one lock per migrated object's parents.
  EXPECT_GT(stats.max_distinct_objects_locked, 100u);
}

TEST_F(PqrTest, ConcurrentWalkersBlockButFinish) {
  BuildGraph(3);
  params_.mpl = 4;
  std::atomic<bool> done{false};
  ReorgStats stats;
  Status st;
  std::thread reorg([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    CopyOutPlanner planner(5);
    PqrOptions opt;
    opt.lock_timeout = std::chrono::milliseconds(100);
    st = db_.RunPqr(1, &planner, opt, &stats);
    done.store(true);
  });
  WorkloadDriver driver(&db_, params_, graph_);
  DriverResult run = driver.Run([&]() { return done.load(); }, 0);
  reorg.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  db_.analyzer().Sync();
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db_.store(), &db_.erts()), 0);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), 1), 0u);
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  // Walkers of the reorganized partition necessarily stalled: PQR holds
  // their persistent roots; timeouts were the expected symptom.
  EXPECT_GT(run.committed + run.timeout_aborts, 0u);
}

TEST_F(PqrTest, OfflineOracleProducesSameReachableSet) {
  // PQR against the off-line algorithm on identical quiescent databases:
  // they must produce isomorphic results.
  BuildGraph(2);
  auto before = testing::CollectReachable(&db_.store());

  CopyOutPlanner planner(5);
  ReorgStats pqr_stats;
  ASSERT_TRUE(db_.RunPqr(1, &planner, PqrOptions{}, &pqr_stats).ok());
  auto after_pqr = testing::CollectReachable(&db_.store());
  EXPECT_EQ(after_pqr.size(), before.size());

  // Second, independent database: off-line algorithm.
  Database db2(testing::SmallDbOptions(5));
  BuiltGraph graph2;
  GraphBuilder builder2(&db2);
  ASSERT_TRUE(builder2.Build(params_, &graph2).ok());
  OfflineReorganizer offline(db2.reorg_context());
  CopyOutPlanner planner2(5);
  ReorgStats off_stats;
  ASSERT_TRUE(offline.Run(1, &planner2, &off_stats).ok());
  EXPECT_EQ(off_stats.objects_migrated, pqr_stats.objects_migrated);
  EXPECT_EQ(testing::CollectReachable(&db2.store()).size(), before.size());
  EXPECT_EQ(testing::CountDanglingRefs(&db2.store()), 0);
}

TEST_F(PqrTest, CompactionMode) {
  BuildGraph(2);
  CompactionPlanner planner;
  ReorgStats stats;
  ASSERT_TRUE(db_.RunPqr(1, &planner, PqrOptions{}, &stats).ok());
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), 1),
            params_.objects_per_partition);
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
}

TEST_F(PqrTest, CommitFailureRollsBackAndIsReported) {
  // An injected clean failure at the whole-partition commit: the move
  // must roll back and Run must say so, not report OK over a partition
  // the abort just restored.
  BuildGraph(2);
  const uint64_t live_p1 = testing::CountLiveObjects(&db_.store(), 1);
  const size_t reachable = testing::CollectReachable(&db_.store()).size();
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("txn:reorg-commit:begin=aborted")
                  .ok());
  CopyOutPlanner planner(5);
  ReorgStats stats;
  Status s = db_.RunPqr(1, &planner, PqrOptions{}, &stats);
  FailPoints::Instance().Reset();
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(stats.aborts_rolled_back, 1u);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), 1), live_p1);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), 5), 0u);
  EXPECT_EQ(testing::CollectReachable(&db_.store()).size(), reachable);
  db_.analyzer().Sync();
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db_.store(), &db_.erts()), 0);
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
}

TEST_F(PqrTest, OfflineCommitFailureIsReported) {
  BuildGraph(2);
  const uint64_t live_p1 = testing::CountLiveObjects(&db_.store(), 1);
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString("txn:reorg-commit:begin=aborted")
                  .ok());
  OfflineReorganizer offline(db_.reorg_context());
  CopyOutPlanner planner(5);
  ReorgStats stats;
  Status s = offline.Run(1, &planner, &stats);
  FailPoints::Instance().Reset();
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), 1), live_p1);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), 5), 0u);
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
}

TEST(OfflineReorgTest, EmptyPartition) {
  Database db(testing::SmallDbOptions(3));
  OfflineReorganizer offline(db.reorg_context());
  CopyOutPlanner planner(2);
  ReorgStats stats;
  ASSERT_TRUE(offline.Run(1, &planner, &stats).ok());
  EXPECT_EQ(stats.objects_migrated, 0u);
}

}  // namespace
}  // namespace brahma
