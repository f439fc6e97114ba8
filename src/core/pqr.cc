#include "core/pqr.h"

#include <unordered_set>

#include "common/clock.h"
#include "core/fuzzy_traversal.h"
#include "core/side_effect_log.h"

namespace brahma {

Status PqrReorganizer::Run(PartitionId p, RelocationPlanner* planner,
                           const PqrOptions& options, ReorgStats* stats) {
  Stopwatch sw;
  Status s;
  for (;;) {
    s = RunAttempt(p, planner, options, stats);
    // A victimized attempt has already aborted its transaction (releasing
    // the quiescing lock hoard and replaying side-table compensation), so
    // the cycle is broken and a fresh quiesce can start immediately.
    if (!s.IsDeadlockVictim()) break;
  }
  stats->duration_ms = sw.ElapsedMillis();
  return s;
}

Status PqrReorganizer::RunAttempt(PartitionId p, RelocationPlanner* planner,
                                  const PqrOptions& options,
                                  ReorgStats* stats) {
  ctx_.analyzer->Sync();  // keep pre-reorg history out of the TRT
  ctx_.trt->Enable(p, /*purge_on_completion=*/false);
  ctx_.txns->WaitForAll(ctx_.txns->ActiveTxns());

  std::unique_ptr<Transaction> txn = ctx_.txns->Begin(LogSource::kReorg);
  // Side tables mutated during the quiescent move-loop roll back with the
  // single reorg transaction: Abort replays the compensation log before
  // releasing the quiescing locks, so nothing observes half-undone state.
  SideEffectLog sel;
  sel.set_compensation_counter(&stats->side_effects_compensated);
  txn->set_side_effect_log(&sel);

  // Quiesce_Partition: lock every external parent noted in the ERT, then
  // every parent the TRT reveals, until no unlocked parent remains.
  for (;;) {
    ctx_.analyzer->Sync();
    std::unordered_set<ObjectId> pending;
    for (const auto& [child, parent] : ctx_.erts->For(p).Entries()) {
      (void)child;
      if (parent.partition() != p && !txn->Holds(parent)) {
        pending.insert(parent);
      }
    }
    for (ObjectId parent : ctx_.trt->AllParents()) {
      if (parent.partition() != p && !txn->Holds(parent) &&
          ctx_.store->Validate(parent)) {
        pending.insert(parent);
      }
    }
    if (pending.empty()) break;
    for (ObjectId parent : pending) {
      // PQR never gives up: retry until the lock is granted.
      for (;;) {
        Status s = txn->LockWithTimeout(parent, LockMode::kExclusive,
                                        options.lock_timeout);
        if (s.ok()) break;
        if (s.IsDeadlockVictim()) {
          // The quiescing transaction holds the largest lock set in the
          // system, so reorg-first victim selection naturally lands here.
          // Retrying this one lock without releasing the hoard would
          // re-form the same cycle; abort the whole attempt instead.
          txn->Abort();
          ++stats->aborts_rolled_back;
          ctx_.trt->Disable();
          return s;
        }
        ++stats->lock_timeouts;
      }
    }
    stats->max_distinct_objects_locked = std::max<uint64_t>(
        stats->max_distinct_objects_locked, txn->num_locks_held());
  }

  // The partition is quiescent: reorganize it like the off-line algorithm
  // (Section 3.1). The traversal is physically safe (nothing can touch
  // the partition), and parents need no further locking — but internal
  // parents are locked anyway since SetRef requires an exclusive lock,
  // and every such lock is uncontended.
  FuzzyTraversal traversal(ctx_.store, ctx_.erts, ctx_.trt, ctx_.analyzer);
  TraversalResult tr = traversal.Run(p);
  stats->traversal_visited = tr.objects_visited;
  ParentLists plists = std::move(tr.parents);
  std::vector<ObjectId> objects(tr.traversed.begin(), tr.traversed.end());
  planner->Order(&objects);

  MigratedSet migrated;
  Status result = Status::Ok();
  for (ObjectId oid : objects) {
    if (!ctx_.store->Validate(oid)) continue;
    // Lock internal parents (uncontended) so MoveObjectAndUpdateRefs'
    // SetRef calls pass the lock checks.
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
    stats->max_distinct_objects_locked = std::max<uint64_t>(
        stats->max_distinct_objects_locked, txn->num_locks_held());
    ObjectId onew;
    result = MoveObjectAndUpdateRefs(ctx_, txn.get(), oid, planner, parents, p,
                                     &migrated, &plists, stats, &onew);
    if (!result.ok()) break;
    migrated.Insert(oid);
  }

  // A clean commit failure (an injected abort at a commit site) leaves
  // the transaction active: it rolls back below like any other failure,
  // so the caller never sees OK for a partition that was not moved.
  if (result.ok()) result = txn->Commit();
  if (result.IsCrashed()) {
    txn->Abandon();  // crash semantics: restart recovery owns the cleanup
  } else if (!result.ok()) {
    txn->Abort();
    ++stats->aborts_rolled_back;
  }
  ctx_.trt->Disable();
  return result;
}

}  // namespace brahma
