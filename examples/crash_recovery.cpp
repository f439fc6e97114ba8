// Failure handling (paper Section 4.4): each object migration runs in a
// transaction, so a crash mid-reorganization loses at most the in-flight
// migration; ARIES-style restart recovery restores a consistent store,
// the ERTs are rebuilt by a database scan, and the reorganization is
// simply started afresh for the objects yet to be migrated.
//
// This example checkpoints, crashes the database "mid-life", recovers,
// verifies the object graph, and completes the reorganization.

#include <cstdio>

#include "core/database.h"
#include "core/ira.h"
#include "workload/graph_builder.h"
#include "workload/random_walk.h"

using namespace brahma;

namespace {

uint64_t CountLive(Database* db, PartitionId p) {
  uint64_t n = 0;
  db->store().partition(p).ForEachLiveObject([&n](uint64_t) { ++n; });
  return n;
}

}  // namespace

int main() {
  DatabaseOptions options;
  options.num_data_partitions = 3;
  Database db(options);

  WorkloadParams params;
  params.num_partitions = 2;
  params.objects_per_partition = 85 * 6;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  if (!builder.Build(params, &graph).ok()) return 1;
  std::printf("built %llu objects; taking a checkpoint\n",
              static_cast<unsigned long long>(graph.objects_created));
  db.Checkpoint();

  // Run some committed work after the checkpoint, plus one transaction
  // that will be in flight (uncommitted) at the crash.
  Random rng(17);
  for (int i = 0; i < 25; ++i) {
    RunWalkOnce(&db, params, graph, 1, &rng);
  }
  ObjectId orphan;
  {
    std::unique_ptr<Transaction> loser = db.Begin();
    loser->CreateObject(1, 0, 8, &orphan);
    // Force its records to the stable log, then crash before commit: the
    // transaction is a loser and recovery must undo it.
    db.log().Flush(db.log().last_lsn());
    std::printf("crashing with transaction %llu still active...\n",
                static_cast<unsigned long long>(loser->id()));
    db.SimulateCrash();
    loser.release();  // the crashed process never runs this destructor
  }

  Status s = db.Recover();
  std::printf("restart recovery: %s\n", s.ToString().c_str());
  if (!s.ok()) return 1;
  std::printf("  loser's object rolled back: Validate(%s) = %s\n",
              orphan.ToString().c_str(),
              db.store().Validate(orphan) ? "true" : "false");
  std::printf("  partition 1 live objects: %llu (as before the crash)\n",
              static_cast<unsigned long long>(CountLive(&db, 1)));

  // The recovered database is fully operational: run the reorganization
  // (afresh, as the paper prescribes after a failure) and keep working.
  CopyOutPlanner planner(3);
  ReorgStats stats;
  s = db.RunIra(1, &planner, IraOptions{}, &stats);
  std::printf("post-recovery reorganization: %s, migrated %llu objects\n",
              s.ToString().c_str(),
              static_cast<unsigned long long>(stats.objects_migrated));

  // Crash again *after* the reorganization and recover: the migration is
  // durable (migrations commit without a force, and the run forces the log
  // once before it returns OK).
  db.SimulateCrash();
  s = db.Recover();
  std::printf("second recovery: %s\n", s.ToString().c_str());
  std::printf("  partition 1 now holds %llu objects, partition 3 holds "
              "%llu — the migration survived the crash\n",
              static_cast<unsigned long long>(CountLive(&db, 1)),
              static_cast<unsigned long long>(CountLive(&db, 3)));

  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    if (RunWalkOnce(&db, params, graph, 1, &rng).ok()) ++committed;
  }
  std::printf("  and the workload still runs: %d/10 walks committed\n",
              committed);
  return committed == 10 ? 0 : 1;
}
