#ifndef BRAHMA_COMMON_EPOCH_H_
#define BRAHMA_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "common/params.h"

namespace brahma {

// Epoch-based reclamation (EBR) for the latch-free read path (DESIGN.md
// §11). Readers wrap each zero-lock access in an EpochGuard; writers that
// unlink an object (migration publishing O_new, undo discarding a copy)
// poison it immediately but hand the physical reclamation of its arena
// range to Retire(), which defers it until every guard that was active at
// retirement time has exited — the grace period. A reader that resolved a
// raw header pointer before the relocation flip can therefore never touch
// reused memory: the slot does not return to the allocator's free list
// while the reader's epoch is pinned.
//
// Protocol (per-thread epoch slots, global epoch advance, retire lists):
//
//  * global epoch G: a monotonically increasing counter, starting at 1.
//  * Enter: acquire a slot, pin it to G with a seq_cst store, and re-check
//    G until it is stable — after Enter returns, any advancer's slot scan
//    is guaranteed to observe the pin (the seq_cst store/load pair forces
//    the pin into the global order before the re-check load).
//  * Retire(fn): a seq_cst fence orders the caller's poison store before
//    the tag load, then fn is queued tagged with the current G. The fence
//    closes the store->load window in which the tag could predate the
//    poison becoming visible: once a later reader pins an epoch > tag, it
//    is guaranteed to observe the poison and fail validation.
//  * AdvanceAndDrain: G advances when every pinned slot has reached G
//    (all active readers are current); an entry tagged E runs once no
//    slot is pinned at an epoch <= E. A stalled reader therefore pins
//    retirement: nothing retired at or after its entry epoch is reclaimed
//    until it exits.
//
// Guards nest freely — each nested guard pins its own slot, and the
// outermost (oldest) pin is what holds the grace period open.
class EpochManager {
 public:
  EpochManager() = default;
  ~EpochManager() { ForceDrainAll(); }

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // Pins the current epoch; returns the slot index for Exit. Never
  // blocks (busy-retries only if all kEpochMaxSlots slots are taken,
  // which needs more concurrent guard nestings than the system spawns
  // threads).
  uint32_t Enter();
  void Exit(uint32_t slot);

  // Defers fn until every guard active at this call has exited. The
  // caller must have already unpublished the resource (poisoned magic,
  // flipped the relocation entry) so that readers entering later fail
  // validation instead of finding it.
  void Retire(std::function<void()> fn);

  // Advances the global epoch if every active reader is current, then
  // runs every retired callback whose grace period has elapsed. Returns
  // the number of callbacks run. Called automatically by Retire; callers
  // with post-run quiescence (end of a reorg run, tests) call it
  // directly to promptly return retired ranges to the allocator.
  size_t AdvanceAndDrain();

  // Runs every retired callback unconditionally. Only legal when no
  // guard can be active (database destruction, crash simulation with all
  // client threads stopped).
  size_t ForceDrainAll();

  uint64_t global_epoch() const {
    return global_.load(std::memory_order_seq_cst);
  }
  size_t retired_pending() const {
    std::lock_guard<std::mutex> g(retire_mu_);
    return retired_.size();
  }

  // Shared monotone counters, named in Database::Metrics(); a run's
  // share is a before/after delta.
  uint64_t epochs_advanced() const {
    return epochs_advanced_.load(std::memory_order_relaxed);
  }
  uint64_t retire_drains() const {
    return drains_.load(std::memory_order_relaxed);
  }
  uint64_t latchfree_reads() const {
    return latchfree_reads_.load(std::memory_order_relaxed);
  }
  void NoteLatchfreeRead() {
    latchfree_reads_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    // 0 = quiescent; otherwise the pinned epoch.
    std::atomic<uint64_t> epoch{0};
    std::atomic<uint32_t> in_use{0};
  };

  // Minimum pinned epoch across all slots; the global epoch if no slot
  // is pinned (then everything already retired is reclaimable).
  uint64_t MinPinned() const;

  std::atomic<uint64_t> global_{1};
  Slot slots_[kEpochMaxSlots];

  struct Retired {
    uint64_t epoch;
    std::function<void()> fn;
  };
  mutable std::mutex retire_mu_;
  std::deque<Retired> retired_;
  std::mutex drain_mu_;  // serializes advance/drain passes

  std::atomic<uint64_t> epochs_advanced_{0};
  std::atomic<uint64_t> drains_{0};
  std::atomic<uint64_t> latchfree_reads_{0};
};

// RAII guard. Null-tolerant: a guard over a null manager is a no-op, so
// call sites need no branching when the epoch system is absent.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager* mgr) : mgr_(mgr) {
    if (mgr_ != nullptr) slot_ = mgr_->Enter();
  }
  ~EpochGuard() {
    if (mgr_ != nullptr) mgr_->Exit(slot_);
  }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager* mgr_;
  uint32_t slot_ = 0;
};

}  // namespace brahma

#endif  // BRAHMA_COMMON_EPOCH_H_
