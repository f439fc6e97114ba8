#ifndef BRAHMA_CORE_TRT_H_
#define BRAHMA_CORE_TRT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "index/extendible_hash.h"
#include "storage/object_id.h"
#include "wal/log_record.h"

namespace brahma {

// One pointer insert/delete noted while reorganization is in progress.
struct TrtTuple {
  enum class Action : uint8_t { kInsert, kDelete };

  ObjectId child;   // the referenced object (in the reorganized partition)
  ObjectId parent;  // the referencer
  TxnId txn = kInvalidTxn;
  Action action = Action::kInsert;
  uint64_t seq = 0;  // order in which the tuple was noted (log order)

  friend bool operator==(const TrtTuple& a, const TrtTuple& b) {
    return a.child == b.child && a.parent == b.parent && a.txn == b.txn &&
           a.action == b.action && a.seq == b.seq;
  }
};

// Temporary Reference Table (paper Section 3.3): a transient structure,
// existing only while a reorganization is in progress on some partition,
// that logs the deletion and addition of references to objects of that
// partition. Tuples are (O, R, tid, action) keyed by the referenced
// object O. Fed by the log analyzer; drained by Find_Exact_Parents.
//
// Space optimization (Section 4.5): under strict 2PL, a transaction's
// delete-tuples may be purged when it completes, and when a transaction
// that deleted R -> O commits, a matching insert tuple noted before the
// delete may be purged too. The purge hook is only wired when
// transactions are strictly two-phase.
class Trt {
 public:
  Trt() : table_(/*bucket_capacity=*/8) {}

  // Begins tracking references into partition p.
  void Enable(PartitionId p, bool purge_on_completion) {
    table_.Clear();
    {
      std::lock_guard<std::mutex> g(deletes_mu_);
      deletes_by_txn_.clear();
    }
    purge_ = purge_on_completion;
    partition_.store(p, std::memory_order_release);
    enabled_.store(true, std::memory_order_release);
  }

  void Disable() {
    enabled_.store(false, std::memory_order_release);
    table_.Clear();
    std::lock_guard<std::mutex> g(deletes_mu_);
    deletes_by_txn_.clear();
  }

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  bool EnabledFor(PartitionId p) const {
    return enabled() && partition_.load(std::memory_order_acquire) == p;
  }

  void NoteInsert(ObjectId child, ObjectId parent, TxnId txn) {
    table_.Insert(child, TrtTuple{child, parent, txn,
                                  TrtTuple::Action::kInsert, next_seq_++});
    inserts_noted_.fetch_add(1, std::memory_order_relaxed);
  }

  void NoteDelete(ObjectId child, ObjectId parent, TxnId txn) {
    TrtTuple t{child, parent, txn, TrtTuple::Action::kDelete, next_seq_++};
    table_.Insert(child, t);
    deletes_noted_.fetch_add(1, std::memory_order_relaxed);
    if (purge_) {
      // Side index so the Section 4.5 purge is O(own tuples) per commit
      // instead of a full-table scan on every transaction completion.
      std::lock_guard<std::mutex> g(deletes_mu_);
      deletes_by_txn_[txn].push_back(t);
    }
  }

  // Any tuple whose referenced object is child (Find_Exact_Parents, S2).
  std::optional<TrtTuple> AnyTupleFor(ObjectId child) const {
    std::optional<TrtTuple> out;
    table_.ForEachValue(child, [&out](const TrtTuple& t) {
      if (!out.has_value()) out = t;
    });
    return out;
  }

  // Snapshot of all tuples naming child, so a drain can process a batch
  // per analyzer sync: with hot objects (high fan-in, frequently
  // re-pointed), one-tuple-per-sync draining can be outpaced by new
  // arrivals.
  std::vector<TrtTuple> TuplesFor(ObjectId child) const {
    std::vector<TrtTuple> out;
    table_.ForEachValue(child,
                        [&out](const TrtTuple& t) { out.push_back(t); });
    return out;
  }

  bool HasTuplesFor(ObjectId child) const { return table_.ContainsKey(child); }

  bool EraseTuple(const TrtTuple& t) { return table_.EraseOne(t.child, t); }
  // Puts back a tuple EraseTuple removed (rollback of a drain).
  void RestoreTuple(const TrtTuple& t) { table_.Insert(t.child, t); }

  // Distinct parents across all tuples (PQR locks them while quiescing).
  std::vector<ObjectId> AllParents() const {
    std::unordered_set<ObjectId> seen;
    table_.ForEach([&seen](const ObjectId&, const TrtTuple& t) {
      seen.insert(t.parent);
    });
    return {seen.begin(), seen.end()};
  }

  // Distinct referenced objects across all tuples (traversal loop L2).
  std::vector<ObjectId> ReferencedObjects() const {
    std::unordered_set<ObjectId> seen;
    table_.ForEach([&seen](const ObjectId& child, const TrtTuple&) {
      seen.insert(child);
    });
    return {seen.begin(), seen.end()};
  }

  // Rewrites the parent field of every tuple naming old_parent: after
  // old_parent migrates to new_parent, a reference some transaction
  // inserted into old_parent now physically lives in new_parent, and the
  // eventual drain must lock the live object.
  void RenameParent(ObjectId old_parent, ObjectId new_parent) {
    std::vector<TrtTuple> renamed;
    table_.ForEach([&](const ObjectId&, const TrtTuple& t) {
      if (t.parent == old_parent) renamed.push_back(t);
    });
    for (const TrtTuple& t : renamed) {
      if (table_.EraseOne(t.child, t)) {
        TrtTuple nt = t;
        nt.parent = new_parent;
        table_.Insert(nt.child, nt);
      }
    }
  }

  // Section 4.5 purge, called when txn completes. Only delete-tuples are
  // purged (plus, on commit, one matching insert tuple per purged delete).
  void OnTxnComplete(TxnId txn, bool committed) {
    if (!enabled() || !purge_) return;
    std::vector<TrtTuple> deletes;
    {
      std::lock_guard<std::mutex> g(deletes_mu_);
      auto it = deletes_by_txn_.find(txn);
      if (it == deletes_by_txn_.end()) return;
      deletes = std::move(it->second);
      deletes_by_txn_.erase(it);
    }
    for (const TrtTuple& t : deletes) {
      if (!table_.EraseOne(t.child, t)) continue;
      purged_.fetch_add(1, std::memory_order_relaxed);
      if (!committed) continue;
      // The reference (t.parent -> t.child) is durably gone: one matching
      // insert tuple (any transaction) is stale and may go too — but only
      // one noted before the delete. An insert noted after it re-created
      // the reference (the delete/re-insert pattern of Figure 2), and a
      // fuzzy traversal that read the parent between the two saw no edge:
      // that insert tuple is the only evidence left of the parent.
      std::optional<TrtTuple> match;
      table_.ForEachValue(t.child, [&](const TrtTuple& u) {
        if (!match.has_value() && u.action == TrtTuple::Action::kInsert &&
            u.parent == t.parent && u.seq < t.seq) {
          match = u;
        }
      });
      if (match.has_value() && table_.EraseOne(match->child, *match)) {
        purged_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  size_t Size() const { return table_.Size(); }
  uint64_t inserts_noted() const { return inserts_noted_.load(); }
  uint64_t deletes_noted() const { return deletes_noted_.load(); }
  uint64_t purged() const { return purged_.load(); }

 private:
  ExtendibleHash<ObjectId, TrtTuple, ObjectIdHash> table_;
  std::mutex deletes_mu_;
  std::unordered_map<TxnId, std::vector<TrtTuple>> deletes_by_txn_;
  std::atomic<bool> enabled_{false};
  std::atomic<PartitionId> partition_{0};
  bool purge_ = false;
  std::atomic<uint64_t> inserts_noted_{0};
  std::atomic<uint64_t> deletes_noted_{0};
  std::atomic<uint64_t> purged_{0};
  std::atomic<uint64_t> next_seq_{0};
};

}  // namespace brahma

#endif  // BRAHMA_CORE_TRT_H_
