#ifndef BRAHMA_CORE_SIDE_EFFECT_LOG_H_
#define BRAHMA_CORE_SIDE_EFFECT_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "storage/object_id.h"
#include "wal/log_record.h"

namespace brahma {

// Compensation log for a migration's *non-WAL* side effects.
//
// The WAL covers object state: aborting a migration transaction undoes
// its creates, frees and SetRefs via CLRs. But a migration also mutates
// side tables the WAL never sees — ParentLists entries, ERT multiset
// adjustments, TRT parent renames, relocation-map publications, the
// migrated-set — and the log analyzer deliberately skips reorg-sourced
// records, so not even the analyzer feed repairs them. Before this log
// existed, a migration transaction that aborted *without* crashing
// (injected error, retry exhaustion, a future deadlock victim) left those
// tables describing a migration that never happened.
//
// The model is ARIES logical compensation, applied to in-memory state:
// every side-table mutation performed under a transaction records a
// compensating closure here, and Transaction::Abort replays the owner's
// closures newest-first *before* releasing locks, so no other thread can
// observe half-undone side tables. Replay is idempotent: each entry is
// popped from the log before its closure runs, so a replay that is itself
// interrupted and re-entered never runs an entry twice. The whole replay
// runs under failpoint::ScopedSuppress ("undo is never undone").
//
// Two entry classes:
//
//   pending    owned by a still-active transaction. The closure reverses
//              an in-memory mutation and cannot fail. Commit drops it
//              (the effect is now permanent); Abort replays it.
//
//   compensable  a pending entry that survives its owner's commit as a
//              *committed* entry carrying a second, Status-returning
//              closure. Two-lock migrations commit parent rewrites and
//              the O_new create in their own transactions mid-migration;
//              if the migration later bails, those committed effects are
//              physically reversed (fresh reorg transactions, real locks)
//              by CompensateCommitted — newest-first, while the anchor
//              still holds O_old and O_new, so no dual-copy state is ever
//              published.
//
// Thread-safety: the log is owned by one migration (one worker), but
// Record/Replay may interleave with the owner's own nested aborts; the
// internal mutex is held only around entry bookkeeping, never while a
// committed compensation closure runs (those take locks and block).
class SideEffectLog {
 public:
  // What the entry compensates — for accounting and debugging only; the
  // closures carry the actual reversal.
  enum class Kind : uint8_t {
    kErtAdjust,      // ERT multiset add/remove (rewrite, finish, gc)
    kParentLists,    // ParentLists add/remove/erase
    kTrtRename,      // Trt::RenameParent
    kTrtDrain,       // Trt tuple erased by a Find_Exact_Parents drain
    kRelocation,     // relocation-map publication (+ reverse map)
    kMigrated,       // migrated-set insert (marks a whole migration)
    kCounters,       // stats counters (objects_migrated, bytes_moved)
    kCommittedRewrite,  // two-lock: parent rewrite committed mid-migration
    kCommittedCreate,   // two-lock: O_new create committed mid-migration
  };

  using UndoFn = std::function<void()>;           // in-memory, cannot fail
  using CompensateFn = std::function<Status()>;   // physical, transactional

  SideEffectLog() = default;
  SideEffectLog(const SideEffectLog&) = delete;
  SideEffectLog& operator=(const SideEffectLog&) = delete;

  // Every replayed or compensated entry bumps this counter (typically
  // ReorgStats::side_effects_compensated). Optional.
  void set_compensation_counter(std::atomic<uint64_t>* counter) {
    counter_ = counter;
  }

  // Records a pending entry owned by `txn`.
  void Record(TxnId txn, Kind kind, UndoFn undo);

  // Records a pending entry that survives its owner's commit: PromoteFor
  // keeps it as a committed entry whose `compensate` closure physically
  // reverses the effect. `undo` may be null when the WAL already reverses
  // everything on abort (e.g. an uncommitted create).
  void RecordCompensable(TxnId txn, Kind kind, UndoFn undo,
                         CompensateFn compensate);

  // Records the completion marker of one whole migration: replaying it
  // runs `undo` and remembers `oid` so the pipeline can requeue the
  // rolled-back object.
  void RecordMigrated(TxnId txn, ObjectId oid, UndoFn undo);

  // Replays (and removes) every pending entry owned by `txn`,
  // newest-first, under failpoint suppression. Entries without an undo
  // closure are just dropped. Called by Transaction::Abort before lock
  // release; idempotent under re-entry.
  void ReplayPendingFor(TxnId txn);

  // The owner committed: pending-only entries are dropped, compensable
  // entries flip to committed (their undo closure is cleared — the WAL
  // owner is gone; only the physical compensation remains meaningful).
  void PromoteFor(TxnId txn);

  // Physically reverses every committed entry, newest-first, each via its
  // compensate closure, under failpoint suppression. Entries are popped
  // before their closure runs; a failing closure re-inserts its entry and
  // stops (the caller decides whether to retry or escalate). Returns the
  // first failure.
  Status CompensateCommitted();

  // Objects whose kMigrated marker was replayed since the last call
  // (i.e. whole migrations rolled back by an abort). Clears the list.
  std::vector<ObjectId> TakeRolledBackMigrations();

  // Drops everything (successful end of the migration scope).
  void Clear();

  size_t entries() const;
  uint64_t replayed() const;

 private:
  struct Entry {
    TxnId txn = kInvalidTxn;
    Kind kind = Kind::kErtAdjust;
    bool committed = false;
    ObjectId migrated_oid = ObjectId::Invalid();
    UndoFn undo;
    CompensateFn compensate;
  };

  void Bump();

  mutable std::mutex mu_;
  std::vector<Entry> entries_;            // append order = forward order
  std::vector<ObjectId> rolled_back_;
  uint64_t replayed_ = 0;
  std::atomic<uint64_t>* counter_ = nullptr;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_SIDE_EFFECT_LOG_H_
