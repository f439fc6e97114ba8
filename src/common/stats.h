#ifndef BRAHMA_COMMON_STATS_H_
#define BRAHMA_COMMON_STATS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/object_id.h"

namespace brahma {

// Lock-free maximum update for monotone gauges (peak sizes etc.).
inline void AtomicMax(std::atomic<uint64_t>* gauge, uint64_t value) {
  uint64_t cur = gauge->load(std::memory_order_relaxed);
  while (cur < value &&
         !gauge->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// What one reorganization run did (paper Section 5, Table 2): the
// counters only the reorganizer bumps, its duration, and the old -> new
// identity mapping. Counters owned by other subsystems (log, lock
// manager, epochs, buffer pool, fault injection) are not mirrored here;
// read a run's share of them as Database::Metrics() deltas around it.
//
// Thread-safe for the parallel migration pipeline: counters are atomics
// (workers bump them concurrently), the relocation map is guarded by an
// internal mutex — use AddRelocation/Relocated/RelocationSnapshot on
// concurrent paths; direct access to `relocation` is fine only while a
// single thread owns the stats (setup, post-run assertions). The atomics
// and the mutex make it non-copyable.
struct ReorgStats {
  std::atomic<uint64_t> objects_migrated{0};
  std::atomic<uint64_t> garbage_collected{0};
  std::atomic<uint64_t> bytes_moved{0};
  std::atomic<uint64_t> find_exact_retries{0};
  std::atomic<uint64_t> lock_timeouts{0};
  std::atomic<uint64_t> trt_tuples_drained{0};
  std::atomic<uint64_t> traversal_visited{0};
  std::atomic<uint64_t> trt_peak_size{0};
  std::atomic<uint64_t> max_distinct_objects_locked{0};
  // Contention-handling accounting: exponential-backoff delays taken
  // between lock-timeout retries (a requeued migration's wait in the
  // pipe, or a two-lock parent retry in place), and their cumulative
  // duration.
  std::atomic<uint64_t> backoff_sleeps{0};
  std::atomic<uint64_t> backoff_total_ms{0};
  // Migrations deferred up front because their footprint (object +
  // approximate parents) overlapped a sibling worker's in-flight
  // migration. Cheap — no lock wait is burned. Always 0 at one worker.
  std::atomic<uint64_t> claim_deferrals{0};
  // Abort churn: migration transactions that aborted cleanly (not
  // crashed) and had their side effects rolled back, and the individual
  // compensating actions replayed doing so (SideEffectLog entries —
  // pending replays plus committed compensations). Degraded-mode
  // decisions can watch these the same way they watch lock_timeouts.
  std::atomic<uint64_t> aborts_rolled_back{0};
  std::atomic<uint64_t> side_effects_compensated{0};
  // Claim-aware pipeline scheduling: deferred migrations woken exactly by
  // the release of the footprint claim that blocked them.
  std::atomic<uint64_t> claim_wakeups{0};
  double duration_ms = 0;
  // old -> new, published before O_old is freed and retracted if the
  // migration rolls back.
  std::unordered_map<ObjectId, ObjectId> relocation;

  // Records old -> new and, for RelocatedFrom, new -> old.
  void AddRelocation(ObjectId from, ObjectId to) {
    std::lock_guard<std::mutex> g(relocation_mu_);
    relocation[from] = to;
    reverse_[to] = from;
  }
  // Compensating action for AddRelocation (both directions): an aborted
  // migration must retract its publication or a sibling would chase
  // old -> new into a rolled-back copy.
  void RemoveRelocation(ObjectId from) {
    std::lock_guard<std::mutex> g(relocation_mu_);
    auto it = relocation.find(from);
    if (it == relocation.end()) return;
    auto rit = reverse_.find(it->second);
    if (rit != reverse_.end() && rit->second == from) reverse_.erase(rit);
    relocation.erase(it);
  }
  // True (and *to filled in) when `from` was relocated by this run.
  bool Relocated(ObjectId from, ObjectId* to) const {
    std::lock_guard<std::mutex> g(relocation_mu_);
    auto it = relocation.find(from);
    if (it == relocation.end()) return false;
    *to = it->second;
    return true;
  }
  // True (and *from filled in) when `to` is the copy some migration of
  // these stats created. Chasing it repeatedly walks an object's earlier
  // identities; stats reused across runs only lengthen that chain, which
  // makes a lock-history wait over it more conservative, never less.
  bool RelocatedFrom(ObjectId to, ObjectId* from) const {
    std::lock_guard<std::mutex> g(relocation_mu_);
    auto it = reverse_.find(to);
    if (it == reverse_.end()) return false;
    *from = it->second;
    return true;
  }
  std::unordered_map<ObjectId, ObjectId> RelocationSnapshot() const {
    std::lock_guard<std::mutex> g(relocation_mu_);
    return relocation;
  }

 private:
  mutable std::mutex relocation_mu_;
  std::unordered_map<ObjectId, ObjectId> reverse_;
};

// A flat, named snapshot of monotone counters (Database::Metrics()).
// Each shared counter has exactly one name here, prefixed by its layer
// (wal., txn., epoch., storage., fault.). A window's share is
// after.Since(before). Get of a name the snapshot does not hold aborts
// the process, so a misspelt name cannot silently read as 0.
class MetricsSnapshot {
 public:
  using Entry = std::pair<std::string, uint64_t>;

  void Add(std::string name, uint64_t value) {
    entries_.emplace_back(std::move(name), value);
  }

  uint64_t Get(std::string_view name) const {
    for (const Entry& e : entries_) {
      if (e.first == name) return e.second;
    }
    std::fprintf(stderr, "brahma: unknown metric '%.*s'\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }

  // Per-name difference this - before; both must hold the same names.
  MetricsSnapshot Since(const MetricsSnapshot& before) const {
    MetricsSnapshot out;
    for (const auto& [name, value] : entries_) {
      out.Add(name, value - before.Get(name));
    }
    return out;
  }

  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

// Streaming summary of a sample (Welford's algorithm) plus retained raw
// values for percentiles/max. Used for response-time analysis (paper
// Table 2 reports avg, max, and standard deviation of response times).
class SampleStats {
 public:
  void Add(double x) {
    values_.push_back(x);
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  void Merge(const SampleStats& other) {
    for (double v : other.values_) Add(v);
  }

  int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double max() const {
    if (values_.empty()) return 0.0;
    return *std::max_element(values_.begin(), values_.end());
  }
  double min() const {
    if (values_.empty()) return 0.0;
    return *std::min_element(values_.begin(), values_.end());
  }

  // q in [0, 1]. Returns the q-th percentile of the sample.
  double Percentile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double idx = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

  // Mean of the k largest samples (the paper notes the trend holds for
  // "the average of the top 10 response times").
  double MeanOfTop(size_t k) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    k = std::min(k, sorted.size());
    double sum = 0;
    for (size_t i = 0; i < k; ++i) sum += sorted[i];
    return sum / static_cast<double>(k);
  }

 private:
  std::vector<double> values_;
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace brahma

#endif  // BRAHMA_COMMON_STATS_H_
