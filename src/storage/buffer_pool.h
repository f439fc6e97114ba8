#ifndef BRAHMA_STORAGE_BUFFER_POOL_H_
#define BRAHMA_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/object_id.h"

namespace brahma {

class EpochManager;

// Fixed-budget frame pool over the partition arenas (DESIGN.md §13).
//
// The arena stays a stable 1:1 virtual address space — raw ObjectHeader
// pointers, blocks spanning page boundaries, and the latch-free read
// path all rely on pointer stability — so frames are not a separate
// cache: a frame IS an arena page, and the pool bounds how many of them
// are materialized at once. Each page is in one of three states:
//
//  * Resident — bytes valid in the arena; counts against the frame
//    budget; CLOCK-scanned for eviction.
//  * Warm — evicted: no longer budgeted, but the memory bytes are
//    still intact, so a reader that resolved a pointer before the
//    eviction keeps reading valid data. The Warm -> Cold release is
//    epoch-deferred (see below); a dirty page is written back at
//    release time, not at eviction, because only the elapsed grace
//    period proves no reader is still flipping per-object latch words
//    inside the page (a pwrite/CRC snapshot taken at evict time could
//    race those atomics and persist a mid-acquire latch that would
//    come back stuck after a cold refetch).
//  * Cold — memory returned to the kernel (or zeroed); the page's truth
//    lives in the data file. The next access is a real pread.
//
// Pin/evict handshake (all seq_cst): a writer pins with pins.fetch_add
// then checks state == Resident (else it undoes the pin and takes the
// slow path under the pool mutex); the evictor, under the mutex, stores
// state = Warm then re-checks pins == 0 (else it reverts to Resident).
// Either the writer sees Warm and backs off, or the evictor sees the
// pin and aborts — a pinned page is never written back or released, so
// in-flight object writes cannot be torn by a concurrent pwrite.
//
// Readers never pin. Every read path holds an EpochGuard across
// Get -> dereference (DESIGN.md §11), and the Warm -> Cold memory
// release is queued through EpochManager::Retire tagged with a per-page
// sequence number: a release runs only after every guard active at
// eviction has exited, and a rescue (re-access of a Warm page) bumps
// the sequence so the queued release no-ops. A reader therefore never
// observes released memory, and a retired-but-still-guarded frame is
// never recycled.
//
// Lock ordering: Partition::mu_ -> pool mutex (one direction only), and
// the pool never calls EpochManager::Retire while either is held —
// releases queue in pending_retire_ and flush from lock-free call sites
// (ObjectStore::Get) via FlushRetirements().
class BufferPool {
 public:
  struct Options {
    uint64_t page_size = kDataPageSize;       // power of two
    uint64_t frames = kBufferPoolFrames;      // >= kBufferPoolMinFrames
  };

  // disk must outlive the pool; epoch may be null (releases then run
  // inline at flush time — only safe single-threaded, e.g. unit tests).
  BufferPool(const Options& options, DiskManager* disk, EpochManager* epoch);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Registers partition pid's arena [base, base + capacity): all pages
  // start Cold and clean with nothing on disk (a cold fetch of a
  // never-written page is a zero fill, not a pread). Must be called for
  // dense pids 0..N in order, before any traffic. capacity must be a
  // multiple of page_size.
  void RegisterPartition(PartitionId pid, uint8_t* base, uint64_t capacity);

  // Read path: make every page overlapping [offset, offset + len)
  // resident. The caller must hold an epoch guard for as long as it
  // dereferences the bytes; the bytes stay valid past eviction (Warm)
  // until that guard exits.
  Status EnsureRange(PartitionId pid, uint64_t offset, uint64_t len);

  // Write path: EnsureRange + pin + mark dirty. Balance with
  // UnpinRange after the bytes are written. Pinned pages are never
  // evicted, written back, or released.
  Status PinRangeForWrite(PartitionId pid, uint64_t offset, uint64_t len);
  void UnpinRange(PartitionId pid, uint64_t offset, uint64_t len);

  // Checkpoint streaming: copies [offset, offset + len) into dest
  // without disturbing residency — Resident/Warm pages memcpy from the
  // arena, Cold pages pread straight from the data file (no pool
  // pollution, not counted as misses). Caller must exclude writers
  // (the checkpoint latch does).
  Status ReadRangeBypass(PartitionId pid, uint64_t offset, uint64_t len,
                         uint8_t* dest);

  // Restore protocol, bracketing Partition::Restore's arena rewrite:
  // BeginRestore makes every page of pid resident, dirty, and pinned
  // (the rewrite is plain memcpy/memset); EndRestore unpins, drops
  // pages at or beyond live_bytes back to Cold-with-nothing-on-disk,
  // and evicts down to the frame budget (restored pages write back
  // when their deferred releases run).
  void BeginRestore(PartitionId pid);
  Status EndRestore(PartitionId pid, uint64_t live_bytes);

  // Crash simulation: scrambles every materialized page's bytes (the
  // frame cache dies with the process), marks all pages Cold with
  // nothing on disk, and drops queued releases. Recovery must Restore
  // every partition before the pool is read again.
  void SimulateCrashLoseFrames(uint64_t seed);

  // Evicts every unpinned resident page, flushes the queued releases,
  // and drains the epoch manager so they run (dirty pages write back
  // inside the release). After this — given no concurrent guards —
  // every unpinned page is Cold and the next access is a real pread.
  // Tests and bench phase resets use this to clear cache state.
  Status FlushAll();

  // Hands queued Warm -> Cold releases to the epoch manager. Called
  // from lock-free sites only (never under a partition mutex: Retire
  // drains inline, and release callbacks take pool/partition mutexes).
  void FlushRetirements();
  bool has_pending_retirements() const {
    return pending_count_.load(std::memory_order_relaxed) > 0;
  }

  uint64_t page_size() const { return opts_.page_size; }
  uint64_t frames() const { return opts_.frames; }
  EpochManager* epoch_manager() const { return epoch_; }

  uint64_t frames_resident() const {
    std::lock_guard<std::mutex> g(mu_);
    return resident_;
  }

  // Shared monotone counters, named in Database::Metrics(); a run's
  // share is a before/after delta.
  uint64_t pool_hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t pool_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  uint64_t frames_evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }
  uint64_t dirty_writebacks() const {
    return writebacks_.load(std::memory_order_relaxed);
  }
  uint64_t warm_rescues() const {
    return rescues_.load(std::memory_order_relaxed);
  }
  uint64_t crc_failures() const {
    return crc_failures_.load(std::memory_order_relaxed);
  }

 private:
  enum PageState : uint32_t { kResident = 0, kWarm = 1, kCold = 2 };

  struct PageMeta {
    std::atomic<uint32_t> state{kCold};
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> dirty{false};
    std::atomic<uint8_t> ref{0};   // CLOCK reference bit
    uint8_t* bytes = nullptr;      // this page's arena slice (immutable)
    // Under mu_: generation of the current Warm episode (bumped on
    // every eviction and rescue; a queued release checks it), CRC of
    // the last writeback, and whether the data file holds this page.
    uint32_t seq = 0;
    uint32_t crc = 0;
    bool on_disk = false;
  };

  struct Part {
    uint8_t* base = nullptr;
    uint64_t pages = 0;
    uint64_t first = 0;  // global index of this partition's page 0
  };

  // All Locked helpers require mu_.
  Status MakeResidentLocked(uint64_t gp);
  Status EvictToBudgetLocked();
  Status EvictPageLocked(uint64_t gp);
  Status WritebackLocked(uint64_t gp);
  void ReleaseMemory(uint8_t* p);  // madvise or memset to zeros
  void QueueReleaseLocked(uint64_t gp);
  void RunReleaseIfCurrent(uint64_t gp, uint32_t seq);

  Options opts_;
  DiskManager* disk_;
  EpochManager* epoch_;

  std::vector<Part> parts_;
  std::deque<PageMeta> pages_;  // deque: PageMeta is not movable

  mutable std::mutex mu_;
  uint64_t resident_ = 0;  // pages in kResident, vs opts_.frames
  uint64_t clock_hand_ = 0;

  struct PendingRelease {
    uint64_t gp;
    uint32_t seq;
  };
  std::vector<PendingRelease> pending_retire_;  // under mu_
  std::atomic<uint64_t> pending_count_{0};

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> writebacks_{0};
  std::atomic<uint64_t> rescues_{0};
  std::atomic<uint64_t> crc_failures_{0};
};

}  // namespace brahma

#endif  // BRAHMA_STORAGE_BUFFER_POOL_H_
