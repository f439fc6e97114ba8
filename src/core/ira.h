#ifndef BRAHMA_CORE_IRA_H_
#define BRAHMA_CORE_IRA_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "core/relocation.h"
#include "core/reorg_checkpoint.h"
#include "core/side_effect_log.h"

namespace brahma {

class MigrationPipe;
class ReorgThrottle;
struct TraversalResult;

// Knobs for the Incremental Reorganization Algorithm.
struct IraOptions {
  // Section 4.2 extension: lock the object being migrated (old and new
  // locations) and the parents one at a time — at most two distinct
  // objects are locked at any point of time.
  bool two_lock_mode = false;

  // Section 4.3: migrations grouped per transaction. Migration commits
  // are not forced (the run forces once at its exit, DESIGN.md §15), so
  // grouping no longer amortizes log forces: it trades locks held at once
  // against log records per commit. In two-lock mode this instead groups
  // parent updates per transaction.
  uint32_t group_size = 1;

  // Section 4.6: reclaim objects of the partition that the traversal did
  // not reach (they are garbage) after migration completes.
  bool collect_garbage = false;

  // Section 4.1 extension: transactions do not follow strict 2PL; after
  // locking an object the reorganizer additionally waits for every active
  // transaction that ever locked it. Requires LockManager history.
  bool wait_for_historical_lockers = false;

  // Ablation knob: suppress the Section 4.5 TRT purge even under strict
  // 2PL (the TRT then only shrinks by drains).
  bool disable_trt_purge = false;

  // Lock-wait timeout for the reorganizer's own acquisitions (deadlocks
  // with user transactions are broken by timeout, Section 5).
  std::chrono::milliseconds lock_timeout = kPaperLockTimeout;

  // Safety valve on migration attempts per object (lock-timeout retries
  // and rolled-back attempts alike). Exhausting it returns
  // Status::RetryExhausted with no reorganizer locks left held.
  uint32_t max_retries_per_object = 10000;

  // Exponential backoff between lock-timeout retries: sleep
  // min(backoff_initial << attempt, backoff_max) before re-trying, so a
  // reorganizer losing deadlock breaks does not spin-starve the user
  // transactions it is losing to. backoff_initial of zero disables.
  std::chrono::milliseconds backoff_initial{1};
  std::chrono::milliseconds backoff_max{64};

  // Graceful degradation: after this many cumulative lock timeouts the
  // run stops instead of retrying forever — the open migration group is
  // committed, a checkpoint is forced into checkpoint_sink (if any), and
  // Run/Resume return Status::Degraded. Completed migrations stay
  // durable; a later Resume from the checkpoint finishes the job when
  // contention subsides. 0 = unlimited (retry until
  // max_retries_per_object per object). The budget aggregates timeouts
  // across all workers.
  uint64_t contention_budget = 0;

  // Section 4.4: checkpoint the reorganization state (Traversed_Objects,
  // Parent_Lists, completed migrations) into *checkpoint_sink every
  // checkpoint_every migrations, so a failure does not force the
  // traversal to be redone. 0 disables.
  ReorgCheckpoint* checkpoint_sink = nullptr;
  uint32_t checkpoint_every = 0;

  // Migrator worker threads fed from a shared work queue (MigrationPipe)
  // over the planner's order; 1 (default) is the paper's one-object-at-
  // a-time loop. Each worker drives its own reorg transaction through
  // MigrateBasic / MigrateTwoLock; a migration that loses a lock race is
  // requeued with exponential backoff instead of blocking the worker.
  // Checkpoints are taken at a barrier so they snapshot a consistent
  // prefix (no worker is mid-group while the snapshot is cut).
  uint32_t num_workers = 1;

  // SLO-driven admission control (DESIGN.md §14): when set, the run's
  // worker count is capped by this throttle — the serving layer feeds it
  // live user-latency samples and it sheds or pauses migration workers
  // whenever the sliding-window p99 exceeds the SLO. Applies at any
  // num_workers (a cap of 0 parks even a single worker). The pointer must
  // outlive Run/Resume.
  ReorgThrottle* throttle = nullptr;
};

// The Incremental Reorganization Algorithm (paper Section 3): migrates
// every live object of a partition to planner-chosen locations while user
// transactions keep running, holding only the locks on the current
// object's parents (basic mode) or on at most two distinct objects
// (two-lock mode).
class IraReorganizer {
 public:
  explicit IraReorganizer(ReorgContext ctx) : ctx_(ctx) {}

  // Runs the full algorithm on partition p. Blocking; returns when every
  // live object of the partition has been migrated (and, optionally,
  // garbage reclaimed). Migrations commit without forcing the log; every
  // non-crash return (Run and Resume alike) forces it once, so all the
  // work the run committed is stable when it returns.
  Status Run(PartitionId p, RelocationPlanner* planner,
             const IraOptions& options, ReorgStats* stats);

  // Resumes a reorganization from a Section 4.4 checkpoint (typically
  // after restart recovery): the TRT is reconstructed from the log
  // generated since the checkpoint, the checkpointed traversal state is
  // patched for migrations that completed after the checkpoint, the
  // traversal is topped up from TRT-referenced objects only, and the
  // remaining objects are migrated.
  Status Resume(const ReorgCheckpoint& checkpoint, RelocationPlanner* planner,
                const IraOptions& options, ReorgStats* stats);

  // Footprint claims currently outstanding. Zero whenever no migration is
  // in flight — a claim that survives an abort is a leak (the abort
  // harness asserts this).
  size_t ActiveFootprintClaims() {
    std::lock_guard<std::mutex> g(claims_mu_);
    return claims_.size();
  }

 private:
  // Per-worker migration state: the open Section 4.3 group transaction,
  // the compensation log its side effects are recorded in, and the retry
  // attempt each member migration had reached (so a group rollback can
  // charge every member one more attempt).
  struct MigratorState {
    std::unique_ptr<Transaction> group_txn;
    uint32_t in_group = 0;
    SideEffectLog side_effects;
    std::unordered_map<ObjectId, uint32_t> member_attempts;
  };

  // Produces a run's starting point: the traversal state and the objects
  // already migrated (none for Run; the checkpointed ones for Resume).
  using Seed = std::function<void(TraversalResult*, MigratedSet*)>;

  // The body Run and Resume share: checks the options, seeds, migrates
  // every traversed object not yet migrated in planner order, and gives
  // the epoch manager a final drain pass.
  Status Reorganize(PartitionId p, RelocationPlanner* planner,
                    const IraOptions& options, ReorgStats* stats,
                    const Seed& seed);

  // Migrates `objects` through a pipe of options.num_workers workers,
  // then optionally sweeps garbage, disables the TRT, and forces the log
  // once — the run's durability barrier. Returns the first non-ok status
  // any worker hit (crash wins over everything else).
  Status MigrateAllAndFinish(PartitionId p, RelocationPlanner* planner,
                             const IraOptions& options,
                             const std::unordered_set<ObjectId>& traversed,
                             const std::vector<ObjectId>& objects,
                             MigratedSet* migrated, ParentLists* plists,
                             ReorgStats* stats);

  // One migrator worker: pops objects from the pipe, migrates them via
  // MigrateBasic / MigrateTwoLock, requeues losers with backoff (the one
  // retry policy), and participates in checkpoint barriers.
  void WorkerMain(MigrationPipe* pipe, PartitionId p,
                  RelocationPlanner* planner, const IraOptions& options,
                  const std::unordered_set<ObjectId>& traversed,
                  MigratedSet* migrated, ParentLists* plists,
                  ReorgStats* stats);

  // Commits ws's open group and folds the commit status into `result`.
  // A crashed result abandons the group (a dead process commits nothing);
  // an Aborted or DeadlockVictim result rolls the whole open group back —
  // its transaction aborts, replaying the group's side effects.
  static Status CloseGroup(MigratorState* ws, Status result,
                           ReorgStats* stats);

  // Publishes a Section 4.4 checkpoint into options.checkpoint_sink, if
  // set. Callers guarantee no migration is in flight. Forces the log
  // first, so a checkpoint never covers an unforced migration; returns
  // the force's failure (a crash) without publishing.
  Status Checkpoint(PartitionId p, const IraOptions& options,
                    const std::unordered_set<ObjectId>& traversed,
                    const ParentLists& plists, const ReorgStats& stats);

  // Sleeps the exponential-backoff delay for the given retry attempt and
  // accounts for it in stats. No-op when backoff is disabled. Only the
  // two-lock parent loop retries in place (O_new is already committed
  // there); every other retry goes back through the pipe.
  void BackoffSleep(uint32_t attempt, const IraOptions& options,
                    ReorgStats* stats);

  // The backoff delay BackoffSleep would sleep for the given attempt.
  static std::chrono::milliseconds BackoffDelay(uint32_t attempt,
                                                const IraOptions& options);

  // True once stats->lock_timeouts has consumed options.contention_budget.
  static bool BudgetExhausted(const IraOptions& options,
                              const ReorgStats& stats) {
    return options.contention_budget > 0 &&
           stats.lock_timeouts >= options.contention_budget;
  }
  // Find_Exact_Parents (Figure 4). On success the exact parent set of oid
  // is locked by txn and recorded in plists; newly taken locks are listed
  // in *newly_locked so a timeout can release just this object's locks.
  Status FindExactParents(ObjectId oid, Transaction* txn,
                          const IraOptions& options, ParentLists* plists,
                          std::vector<ObjectId>* newly_locked,
                          ReorgStats* stats);

  // One migration attempt. A lock timeout returns Status::TimedOut with
  // every lock taken for this object released; a waits-for victim or a
  // clean abort returns DeadlockVictim / Aborted with the attempt rolled
  // back; WorkerMain requeues all three. A footprint conflict returns
  // Status::Busy with *blocker naming the anchor of the claim that
  // blocked it, so the pipe can park the item under exactly that claim.
  Status MigrateBasic(ObjectId oid, PartitionId p, RelocationPlanner* planner,
                      const IraOptions& options, MigratorState* ws,
                      MigratedSet* migrated, ParentLists* plists,
                      ReorgStats* stats, ObjectId* blocker);

  Status MigrateTwoLock(ObjectId oid, PartitionId p,
                        RelocationPlanner* planner, const IraOptions& options,
                        MigratedSet* migrated, ParentLists* plists,
                        ReorgStats* stats, ObjectId* blocker);

  // Worker-worker deadlock/livelock avoidance: a migration claims its
  // anchor and its initial parent snapshot before taking any lock; two claims
  // conflict iff their footprints intersect. Disjoint footprints mean no
  // two in-flight migrations ever wait on each other's locks — no
  // worker-worker deadlock, and cluster siblings (which share a tree
  // parent, and are adjacent in the traversal-ordered queue) defer
  // instead of serializing on the shared parent for a full migration
  // apiece. The loser returns false with *blocker naming the conflicting
  // claim's anchor; the pipe parks the object under that claim, with no
  // retry charge. With one worker every claim succeeds.
  bool TryClaimFootprint(ObjectId oid, const std::vector<ObjectId>& parents,
                         ObjectId* blocker);
  void ReleaseFootprint(ObjectId oid);

  // Registers a Busy-deferred item with the pipe. Parks it under its
  // blocking claim when that claim is still outstanding — checked and
  // registered under claims_mu_, so ReleaseFootprint (same mutex) cannot
  // slip between the check and the park and strand the item. If the
  // blocker already released, the item is requeued ready immediately.
  void DeferOnClaim(MigrationPipe* pipe, ObjectId blocker, ObjectId oid,
                    uint32_t attempt);

  Status SweepGarbage(PartitionId p,
                      const std::unordered_set<ObjectId>& traversed,
                      const ReorgStats& stats_so_far, ReorgStats* stats);

  // A transaction that copied a reference out of an object before it
  // migrated appears only in the lock history of the old identity;
  // Section 4.1 waits chase pre-images through stats.RelocatedFrom.
  void WaitForHistoricalLockers(ObjectId oid, Transaction* txn,
                                const ReorgStats& stats);

  ReorgContext ctx_;
  // Active two-lock footprint claims: anchor -> {anchor} ∪ parents.
  std::mutex claims_mu_;
  std::unordered_map<ObjectId, std::unordered_set<ObjectId>> claims_;
  // Pipe to notify when a claim drops (claim-aware wakeup). Set by
  // MigrateAllAndFinish for the run's duration; guarded by claims_mu_. Lock
  // order is strictly claims_mu_ -> pipe mutex (the pipe never calls
  // back into the reorganizer), so release-and-wake is race-free.
  MigrationPipe* wake_pipe_ = nullptr;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_IRA_H_
