#include "core/offline_reorg.h"

#include <unordered_set>

#include "common/clock.h"
#include "core/fuzzy_traversal.h"

namespace brahma {

Status OfflineReorganizer::Run(PartitionId p, RelocationPlanner* planner,
                               ReorgStats* stats) {
  Stopwatch sw;
  ctx_.analyzer->Sync();

  FuzzyTraversal traversal(ctx_.store, ctx_.erts, ctx_.trt, ctx_.analyzer);
  TraversalResult tr = traversal.Run(p);
  stats->traversal_visited = tr.objects_visited;
  ParentLists plists = std::move(tr.parents);
  std::vector<ObjectId> objects(tr.traversed.begin(), tr.traversed.end());
  planner->Order(&objects);

  std::unique_ptr<Transaction> txn = ctx_.txns->Begin(LogSource::kReorg);
  MigratedSet migrated;
  Status result = Status::Ok();
  for (ObjectId oid : objects) {
    if (!ctx_.store->Validate(oid)) continue;
    std::vector<ObjectId> parents = plists.Get(oid);
    for (ObjectId r : parents) {
      if (r == oid || txn->Holds(r)) continue;
      Status s = txn->Lock(r, LockMode::kExclusive);
      if (!s.ok()) {
        result = s;
        break;
      }
    }
    if (!result.ok()) break;
    ObjectId onew;
    result = MoveObjectAndUpdateRefs(ctx_, txn.get(), oid, planner, parents, p,
                                     &migrated, &plists, stats, &onew);
    if (!result.ok()) break;
    migrated.Insert(oid);
  }
  if (result.ok()) result = txn->Commit();
  if (result.IsCrashed()) {
    txn->Abandon();  // crash semantics: restart recovery owns the cleanup
  } else if (!result.ok()) {
    txn->Abort();
  }
  stats->duration_ms = sw.ElapsedMillis();
  return result;
}

}  // namespace brahma
