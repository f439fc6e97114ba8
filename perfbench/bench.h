#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark: run options, the result
// report, span tracing, the gauge sampler, the timing planner decorator,
// the paper's invariant checks, and small statistics helpers.
//
// Everything here drives the library only through its public API. Spans
// are taken in the benchmark's own code around calls into the library;
// nothing under src/ is instrumented.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/relocation.h"

namespace perfbench {

using brahma::ObjectId;
using brahma::PartitionId;
using brahma::Status;

// --- time ---------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- options and report -------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // scratch space for data files and WAL segments
  std::string trace_out;  // span dump path (traced runs)
};

// What one run produced. Metrics are keyed by name; checks that fail mark
// the run incorrect and are echoed to stderr.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Get(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0 : it->second.first;
  }

  // A failed correctness check.
  void Fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    correct_ = false;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool correct() const { return correct_; }

  // Logical operations (user operations, scans, reorganization runs) and
  // those that did not complete successfully.
  void AddOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Attempt-level accounting, retries included (failed_frac).
  void AddAttempts(uint64_t attempts, uint64_t failed_attempts) {
    attempts_ += attempts;
    failed_attempts_ += failed_attempts;
  }
  uint64_t attempts() const { return attempts_; }
  uint64_t failed_attempts() const { return failed_attempts_; }

  // Extra context printed before the result line.
  void Info(const std::string& key, double value) { info_[key] = value; }
  const std::map<std::string, double>& info() const { return info_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, double> info_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t attempts_ = 0;
  uint64_t failed_attempts_ = 0;
};

// --- statistics ---------------------------------------------------------

// q-quantile (q in [0, 1]) with linear interpolation; 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

// Hands memory freed by a torn-down round back to the OS, so the next
// round's peak resident set is its own and not the allocator's leftovers.
void ReleaseFreedMemory();

// A committed logical operation: when it ended and how long it took.
struct OpSample {
  int64_t end_ns;
  double latency_ms;
};

// Latency samples whose operation ended inside [lo_ns, hi_ns).
std::vector<double> LatenciesIn(const std::vector<OpSample>& samples,
                                int64_t lo_ns, int64_t hi_ns);

// A measured interval [first, second) in NowNs time.
using Window = std::pair<int64_t, int64_t>;

// Sets user_tps and user_p50_ms from the operations that ended inside
// the windows. Each window is cut into sub-windows of about one second:
// user_tps (and the workload.user_p90_ms diagnostic) is the median of the
// per-sub-window values, so one disturbed second moves it little;
// user_p50_ms is the median of all samples. The pooled p95, p99 and p99.9
// are workload.* diagnostics too.
void SetUserMetrics(Report* r, const std::vector<OpSample>& samples,
                    const std::vector<Window>& windows);

// --- span tracing -------------------------------------------------------

// Span names. Each layer boundary the benchmark crosses has one; spans of
// one logical operation or one migration share `op`.
namespace span {
inline constexpr const char* kUserOp = "user.op";
inline constexpr const char* kBegin = "txn.begin";
inline constexpr const char* kLock = "txn.lock";
inline constexpr const char* kRead = "txn.read";
inline constexpr const char* kWrite = "txn.write";
inline constexpr const char* kAbort = "txn.abort";
inline constexpr const char* kCommit = "wal.commit";
inline constexpr const char* kNetCall = "net.call";
inline constexpr const char* kNetPing = "net.ping";
inline constexpr const char* kReorgRun = "core.run";
inline constexpr const char* kQuiesceTraverse = "core.quiesce_traverse";
inline constexpr const char* kOrder = "core.order";
inline constexpr const char* kMigrate = "core.migrate";
inline constexpr const char* kMigration = "core.migration";
}  // namespace span

inline constexpr size_t kMaxDumpedSpansPerThread = 20000;

struct Span {
  uint64_t op;
  const char* name;  // one of the span:: constants
  int32_t parent;    // index in the same buffer, -1 for a root
  int64_t start_ns;
  int64_t end_ns;
};

// Spans of one thread, kept in memory until the run ends.
class SpanBuffer {
 public:
  int32_t Open(const char* name, uint64_t op, int32_t parent) {
    spans_.push_back(Span{op, name, parent, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t idx, int64_t end_ns = NowNs()) {
    spans_[static_cast<size_t>(idx)].end_ns = end_ns;
  }
  void Add(const Span& s) { spans_.push_back(s); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Owns every thread's buffer. With tracing off NewBuffer returns null and
// every recording helper is a no-op.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  SpanBuffer* NewBuffer() {
    if (!on_) return nullptr;
    std::lock_guard<std::mutex> g(mu_);
    buffers_.push_back(std::make_unique<SpanBuffer>());
    return buffers_.back().get();
  }
  const std::vector<std::unique_ptr<SpanBuffer>>& buffers() const {
    return buffers_;
  }
  // Writes spans as CSV (thread,op,name,parent,start_ns,end_ns): the
  // first kMaxDumpedSpansPerThread of each thread, which keeps the file
  // small; the per-layer metrics use every span.
  bool Dump(const std::string& path) const;

 private:
  const bool on_;
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// Runs f() inside a span when b is non-null.
template <typename F>
Status Call(SpanBuffer* b, const char* name, uint64_t op, int32_t parent,
            F&& f) {
  if (b == nullptr) return f();
  const int32_t i = b->Open(name, op, parent);
  Status s = f();
  b->Close(i);
  return s;
}

// Per-operation roll-up of the spans under each user.op root: the root's
// duration, the part its call spans cover, and time spent in each span
// name. Also the per-call durations of selected names.
struct OpBreakdown {
  std::vector<double> coverage;          // child time / op latency, per op
  double covered_ns = 0;                 // sum over ops
  double op_ns = 0;                      // sum over ops
  std::vector<double> lock_wait_ms;      // per op, summed txn.lock spans
  std::vector<double> read_us;           // per call
  std::vector<double> write_us;          // per call
  std::vector<double> commit_ms;         // per call
  std::vector<double> ping_us;           // per call
  std::map<std::string, double> self_s;  // self time per span name
};
OpBreakdown BreakDown(const Tracer& tracer);

// Sets the per-layer metrics BreakDown yields (txn.*, wal.commit_*,
// net.ping_*) and the coverage check.
void SetSpanMetrics(Report* r, const OpBreakdown& b, bool has_txn_calls);

// --- closed-loop clients ------------------------------------------------

// One client's tallies. An operation is logical (retries included); an
// attempt is one try at it.
struct ClientTally {
  std::vector<OpSample> samples;  // completed operations
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  uint64_t attempts = 0;
  uint64_t failed_attempts = 0;
};

// `clients` threads, each issuing its next operation only after the
// previous one completed, until Stop. op(client, spans, stopping, tally)
// runs one logical operation and records it in the tally.
class ClosedLoop {
 public:
  using OpFn = std::function<void(uint32_t, SpanBuffer*,
                                  const std::atomic<bool>&, ClientTally*)>;

  ClosedLoop(uint32_t clients, Tracer* tracer, OpFn op)
      : op_(std::move(op)), tallies_(clients) {
    for (uint32_t c = 0; c < clients; ++c) {
      SpanBuffer* spans = tracer->NewBuffer();
      threads_.emplace_back([this, c, spans]() {
        while (!stop_.load()) op_(c, spans, stop_, &tallies_[c]);
      });
    }
  }
  ~ClosedLoop() { Stop(); }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  void Stop() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }
  // Merged tallies; call after Stop.
  ClientTally Total() const {
    ClientTally t;
    for (const ClientTally& c : tallies_) {
      t.samples.insert(t.samples.end(), c.samples.begin(), c.samples.end());
      t.ops += c.ops;
      t.failed_ops += c.failed_ops;
      t.attempts += c.attempts;
      t.failed_attempts += c.failed_attempts;
    }
    return t;
  }

 private:
  OpFn op_;
  std::vector<ClientTally> tallies_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // joined by Stop (and the destructor)
};

// --- gauge sampler ------------------------------------------------------

// Polls named gauges on its own thread and keeps each one's peak.
class PeakSampler {
 public:
  using Gauge = std::function<double()>;
  PeakSampler() = default;
  ~PeakSampler() { Stop(); }
  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;

  void Add(const std::string& name, Gauge g) { gauges_.push_back({name, g}); }
  void Start(std::chrono::milliseconds period);
  void Stop();
  double Peak(const std::string& name) const;

 private:
  void SampleOnce();

  std::vector<std::pair<std::string, Gauge>> gauges_;
  mutable std::mutex mu_;
  std::map<std::string, double> peaks_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Adds the gauges every workload samples: retained log records, analyzer
// lag, relocation-table size and pending epoch retirements of *db. The
// sampler must only run while *db holds a live database.
void AddDatabaseGauges(PeakSampler* sampler,
                       const std::unique_ptr<brahma::Database>* db);
inline constexpr const char* kDatabaseGauges[] = {
    "wal.retained_records_peak", "core.analyzer_lag_peak",
    "storage.relocation_table_peak", "epoch.retired_pending_peak"};

// Log and lock-manager counters, read at a measured window's edges.
struct LogLockCounters {
  uint64_t batches = 0, absorbed = 0, fsyncs = 0, lsn = 0, deadlocks = 0,
           user_victims = 0;
  static LogLockCounters Read(brahma::Database* db);
  void AddDelta(const LogLockCounters& from, const LogLockCounters& to);
};

// Sets txn.deadlocks_detected, txn.user_victims and the wal.* ratios
// from counter deltas over windows holding `commits` user commits.
void SetLogLockMetrics(Report* r, const LogLockCounters& k, double commits);

// --- planner decorator --------------------------------------------------

// Times IraReorganizer::Run from outside: Run's start until Order is
// entered is quiesce + fuzzy traversal, Order itself is planner ordering,
// and from Order's exit to Run's return is migration. Each Target call
// marks one migration; the gap between consecutive calls on one worker
// is that worker's migration cycle.
class TimedPlanner : public brahma::RelocationPlanner {
 public:
  TimedPlanner(brahma::RelocationPlanner* inner, SpanBuffer* spans)
      : inner_(inner), spans_(spans) {}

  void RunStarted() { run_start_ = NowNs(); }
  void RunEnded();

  PartitionId Target(ObjectId oid) override;
  void Order(std::vector<ObjectId>* objects) override;
  void Transform(ObjectId oid, std::vector<ObjectId>* refs,
                 std::vector<uint8_t>* data) override {
    inner_->Transform(oid, refs, data);
  }

  double quiesce_traverse_s() const { return NsToS(order_start_ - run_start_); }
  double order_s() const { return NsToS(order_end_ - order_start_); }
  double migrate_s() const { return NsToS(run_end_ - order_end_); }
  double run_s() const { return NsToS(run_end_ - run_start_); }
  std::vector<double> cycles_ms() const {
    std::lock_guard<std::mutex> g(mu_);
    return cycles_ms_;
  }

 private:
  brahma::RelocationPlanner* inner_;
  SpanBuffer* spans_;  // guarded by mu_ (workers call Target concurrently)
  int64_t run_start_ = 0, run_end_ = 0, order_start_ = 0, order_end_ = 0;
  std::atomic<uint64_t> targets_{0};
  mutable std::mutex mu_;
  std::unordered_map<std::thread::id, int64_t> last_target_ns_;
  std::vector<double> cycles_ms_;
};

// Sums the phase splits and migration cycles of several Run calls.
struct CoreTiming {
  double quiesce_traverse_s = 0, order_s = 0, migrate_s = 0;
  std::vector<double> cycles_ms;
  void Add(const TimedPlanner& p) {
    quiesce_traverse_s += p.quiesce_traverse_s();
    order_s += p.order_s();
    migrate_s += p.migrate_s();
    auto c = p.cycles_ms();
    cycles_ms.insert(cycles_ms.end(), c.begin(), c.end());
  }
};
// Sets the core.* metrics and checks that the phases add up to reorg_s,
// the total Run time of the same calls.
void SetCoreMetrics(Report* r, const CoreTiming& t,
                    const brahma::ReorgStats& stats, double reorg_s);

// Adds one Run's migration counters to a running total (peaks: max).
void AccumulateStats(brahma::ReorgStats* total,
                     const brahma::ReorgStats& pass);

// --- invariant checks (the paper's Lemmas; cf. tests/test_util.h) --------

// Live objects of partition p.
std::unordered_set<ObjectId> LiveObjects(brahma::ObjectStore* store,
                                         PartitionId p);
// Valid references that point at a dead object.
uint64_t CountDanglingRefs(brahma::ObjectStore* store);
// Objects reachable from the persistent root.
std::unordered_set<ObjectId> Reachable(brahma::ObjectStore* store);
// ERT entries that differ from a recomputation by full scan.
uint64_t CountErtDiscrepancies(brahma::ObjectStore* store,
                               brahma::ErtSet* erts);

// --- workloads ----------------------------------------------------------

void RunReorgMem(const Options& opt, Report* r);
void RunServeDisk(const Options& opt, Report* r);
void RunClusterDisk(const Options& opt, Report* r);

// Every workload runs at least this many rounds, each on a freshly set-up
// database, and reports medians over them (setup_s, maint_s, pre_p50_ms):
// one disturbed round on a shared host then moves no metric.
inline constexpr int kRounds = 3;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
