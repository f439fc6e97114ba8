// Repository benchmark driver: runs one workload for one seed and prints
// its metrics. perfbench/run.py builds this binary and calls it; see
// perfbench/README.md for the workloads and every metric's definition.
//
//   perfbench --workload reorg-mem|serve-disk|cluster-disk --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// The last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). An "E2E {..}" line before it always carries the
// end-to-end metrics, so a caller can compute the tracing overhead.

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>

#include "bench.h"
#include "common/file_util.h"
#include "core/fuzzy_traversal.h"

namespace perfbench {

// --- shared implementations ---------------------------------------------

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ReleaseFreedMemory() { malloc_trim(0); }

std::vector<double> LatenciesIn(const std::vector<OpSample>& samples,
                                int64_t lo_ns, int64_t hi_ns) {
  std::vector<double> out;
  for (const OpSample& s : samples) {
    if (s.end_ns >= lo_ns && s.end_ns < hi_ns) out.push_back(s.latency_ms);
  }
  return out;
}

void SetUserMetrics(Report* r, const std::vector<OpSample>& samples,
                    const std::vector<Window>& windows) {
  constexpr int64_t kSubWindowNs = 1000000000;
  std::vector<double> all, tps, p90;
  for (const auto& [lo, hi] : windows) {
    const int64_t n = std::max<int64_t>(1, (hi - lo) / kSubWindowNs);
    const int64_t len = (hi - lo) / n;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t sub_lo = lo + i * len;
      const int64_t sub_hi = i + 1 == n ? hi : sub_lo + len;
      std::vector<double> part = LatenciesIn(samples, sub_lo, sub_hi);
      tps.push_back(static_cast<double>(part.size()) / NsToS(sub_hi - sub_lo));
      p90.push_back(Quantile(part, 0.90));
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  r->Set("user_tps", Median(tps), "1/s");
  r->Set("user_p50_ms", Median(all), "ms");
  r->Set("workload.user_p90_ms", Median(p90), "ms");
  r->Set("workload.user_p95_ms", Quantile(all, 0.95), "ms");
  r->Set("workload.user_p99_ms", Quantile(all, 0.99), "ms");
  r->Set("workload.user_p999_ms", Quantile(all, 0.999), "ms");
  r->Info("user_samples", static_cast<double>(all.size()));
  r->Info("user_sub_windows", static_cast<double>(tps.size()));
  r->Check(all.size() >= 4000,
           "fewer than 4000 latency samples in the measured windows (" +
               std::to_string(all.size()) + ")");
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,op,name,parent,start_ns,end_ns\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t]->spans();
    const size_t n = std::min(spans.size(), kMaxDumpedSpansPerThread);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%llu,%s,%d,%lld,%lld\n", t,
                   static_cast<unsigned long long>(s.op), s.name, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

OpBreakdown BreakDown(const Tracer& tracer) {
  OpBreakdown b;
  std::map<std::string, int64_t> self_ns;
  for (const auto& buf : tracer.buffers()) {
    const std::vector<Span>& spans = buf->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    std::vector<int64_t> lock_ns(spans.size(), 0);
    for (const Span& s : spans) {
      const int64_t d = s.end_ns - s.start_ns;
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += d;
        if (s.name == span::kLock) lock_ns[static_cast<size_t>(s.parent)] += d;
      }
      if (s.name == span::kRead) b.read_us.push_back(d / 1e3);
      if (s.name == span::kWrite) b.write_us.push_back(d / 1e3);
      if (s.name == span::kCommit) b.commit_ms.push_back(d / 1e6);
      if (s.name == span::kNetPing) b.ping_us.push_back(d / 1e3);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t d = s.end_ns - s.start_ns;
      self_ns[s.name] += d - child_ns[i];
      if (s.name != span::kUserOp || d <= 0) continue;
      b.coverage.push_back(static_cast<double>(child_ns[i]) /
                           static_cast<double>(d));
      b.covered_ns += static_cast<double>(child_ns[i]);
      b.op_ns += static_cast<double>(d);
      b.lock_wait_ms.push_back(lock_ns[i] / 1e6);
    }
  }
  for (const auto& [name, ns] : self_ns) b.self_s[name] = ns / 1e9;
  return b;
}

void SetSpanMetrics(Report* r, const OpBreakdown& b, bool has_txn_calls) {
  if (has_txn_calls) {
    r->Set("txn.lock_wait_ms_p50", Quantile(b.lock_wait_ms, 0.50), "ms");
    r->Set("txn.lock_wait_ms_p99", Quantile(b.lock_wait_ms, 0.99), "ms");
    r->Set("txn.read_us_p50", Quantile(b.read_us, 0.50), "us");
    r->Set("txn.write_us_p50", Quantile(b.write_us, 0.50), "us");
    r->Set("wal.commit_ms_p50", Quantile(b.commit_ms, 0.50), "ms");
    r->Set("wal.commit_ms_p99", Quantile(b.commit_ms, 0.99), "ms");
  }
  if (!b.ping_us.empty()) {
    r->Set("net.ping_rtt_us_p50", Quantile(b.ping_us, 0.50), "us");
    r->Set("net.ping_rtt_us_p99", Quantile(b.ping_us, 0.99), "us");
  }
  const double coverage = Ratio(b.covered_ns, b.op_ns);
  r->Set("trace.op_coverage", coverage, "1");
  r->Set("trace.op_coverage_p5", Quantile(b.coverage, 0.05), "1");
  r->Check(!b.coverage.empty(), "traced run recorded no user operations");
  r->Check(coverage >= 0.95, "call spans cover only " +
                                 std::to_string(coverage * 100) +
                                 "% of user operation latency (< 95%)");
  for (const auto& [name, s] : b.self_s) r->Info("self_s." + name, s);
}

void PeakSampler::Start(std::chrono::milliseconds period) {
  stop_.store(false);
  thread_ = std::thread([this, period]() {
    while (!stop_.load()) {
      SampleOnce();
      std::this_thread::sleep_for(period);
    }
  });
}

void PeakSampler::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
  SampleOnce();
}

void PeakSampler::SampleOnce() {
  for (const auto& [name, gauge] : gauges_) {
    const double v = gauge();
    std::lock_guard<std::mutex> g(mu_);
    auto it = peaks_.find(name);
    if (it == peaks_.end()) {
      peaks_[name] = v;
    } else {
      it->second = std::max(it->second, v);
    }
  }
}

double PeakSampler::Peak(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = peaks_.find(name);
  return it == peaks_.end() ? 0 : it->second;
}

void AddDatabaseGauges(PeakSampler* sampler,
                       const std::unique_ptr<brahma::Database>* db) {
  sampler->Add(kDatabaseGauges[0], [db]() {
    return static_cast<double>((*db)->log().NumRecords());
  });
  sampler->Add(kDatabaseGauges[1], [db]() {
    const brahma::Lsn last = (*db)->log().last_lsn();
    const brahma::Lsn done = (*db)->analyzer().processed_lsn();
    return static_cast<double>(last > done ? last - done : 0);
  });
  sampler->Add(kDatabaseGauges[2], [db]() {
    return static_cast<double>((*db)->store().RelocationTableSize());
  });
  sampler->Add(kDatabaseGauges[3], [db]() {
    return static_cast<double>((*db)->epoch().retired_pending());
  });
}

LogLockCounters LogLockCounters::Read(brahma::Database* db) {
  LogLockCounters k;
  k.batches = db->log().group_commit_batches();
  k.absorbed = db->log().group_commit_forces_absorbed();
  k.fsyncs = db->log().fsyncs();
  k.lsn = db->log().last_lsn();
  k.deadlocks = db->locks().deadlocks_detected();
  k.user_victims = db->locks().user_victims();
  return k;
}

void LogLockCounters::AddDelta(const LogLockCounters& from,
                               const LogLockCounters& to) {
  batches += to.batches - from.batches;
  absorbed += to.absorbed - from.absorbed;
  fsyncs += to.fsyncs - from.fsyncs;
  lsn += to.lsn - from.lsn;
  deadlocks += to.deadlocks - from.deadlocks;
  user_victims += to.user_victims - from.user_victims;
}

void SetLogLockMetrics(Report* r, const LogLockCounters& k, double commits) {
  r->Set("txn.deadlocks_detected", static_cast<double>(k.deadlocks), "count");
  r->Set("txn.user_victims", static_cast<double>(k.user_victims), "count");
  r->Set("wal.commits_per_batch",
         Ratio(static_cast<double>(k.batches + k.absorbed),
               static_cast<double>(k.batches)),
         "1");
  r->Set("wal.fsyncs_per_commit", Ratio(static_cast<double>(k.fsyncs), commits),
         "1");
  r->Set("wal.records_per_commit", Ratio(static_cast<double>(k.lsn), commits),
         "1");
}

PartitionId TimedPlanner::Target(ObjectId oid) {
  const int64_t now = NowNs();
  const uint64_t n = targets_.fetch_add(1) + 1;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto [it, first] = last_target_ns_.try_emplace(std::this_thread::get_id(),
                                                   now);
    if (!first) {
      cycles_ms_.push_back(NsToMs(now - it->second));
      if (spans_ != nullptr) {
        spans_->Add(Span{n, span::kMigration, -1, it->second, now});
      }
      it->second = now;
    }
  }
  return inner_->Target(oid);
}

void TimedPlanner::Order(std::vector<ObjectId>* objects) {
  order_start_ = NowNs();
  inner_->Order(objects);
  order_end_ = NowNs();
  if (spans_ != nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    spans_->Add(Span{0, span::kQuiesceTraverse, -1, run_start_, order_start_});
    spans_->Add(Span{0, span::kOrder, -1, order_start_, order_end_});
  }
}

void TimedPlanner::RunEnded() {
  run_end_ = NowNs();
  if (spans_ != nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    spans_->Add(Span{0, span::kMigrate, -1, order_end_, run_end_});
    spans_->Add(Span{0, span::kReorgRun, -1, run_start_, run_end_});
  }
}

void SetCoreMetrics(Report* r, const CoreTiming& t,
                    const brahma::ReorgStats& stats, double reorg_s) {
  const double migrated = static_cast<double>(stats.objects_migrated.load());
  r->Set("core.quiesce_traverse_s", t.quiesce_traverse_s, "s");
  r->Set("core.order_s", t.order_s, "s");
  r->Set("core.migrate_s", t.migrate_s, "s");
  r->Set("core.migrations_per_s", Ratio(migrated, t.migrate_s), "1/s");
  r->Set("core.migration_cycle_ms_p50", Quantile(t.cycles_ms, 0.50), "ms");
  r->Set("core.migration_cycle_ms_p99", Quantile(t.cycles_ms, 0.99), "ms");
  r->Set("core.claim_deferrals_per_migration",
         Ratio(static_cast<double>(stats.claim_deferrals.load()), migrated),
         "1");
  r->Set("core.find_exact_retries_per_migration",
         Ratio(static_cast<double>(stats.find_exact_retries.load()), migrated),
         "1");
  r->Set("core.lock_timeouts", static_cast<double>(stats.lock_timeouts.load()),
         "count");
  r->Set("core.aborts_rolled_back",
         static_cast<double>(stats.aborts_rolled_back.load()), "count");
  r->Set("core.trt_peak", static_cast<double>(stats.trt_peak_size.load()),
         "count");
  r->Set("core.trt_tuples_drained",
         static_cast<double>(stats.trt_tuples_drained.load()), "count");
  const double phase_sum = t.quiesce_traverse_s + t.order_s + t.migrate_s;
  const double gap = std::fabs(phase_sum - reorg_s);
  r->Set("trace.reorg_phase_gap_s", gap, "s");
  r->Check(gap <= 1e-6, "core phases sum to " + std::to_string(phase_sum) +
                            " s but reorg_s is " + std::to_string(reorg_s));
  r->Info("core.migrations", migrated);
}

void AccumulateStats(brahma::ReorgStats* total,
                     const brahma::ReorgStats& pass) {
  total->objects_migrated += pass.objects_migrated.load();
  total->claim_deferrals += pass.claim_deferrals.load();
  total->find_exact_retries += pass.find_exact_retries.load();
  total->lock_timeouts += pass.lock_timeouts.load();
  total->aborts_rolled_back += pass.aborts_rolled_back.load();
  total->trt_tuples_drained += pass.trt_tuples_drained.load();
  brahma::AtomicMax(&total->trt_peak_size, pass.trt_peak_size.load());
}

std::unordered_set<ObjectId> LiveObjects(brahma::ObjectStore* store,
                                         PartitionId p) {
  std::unordered_set<ObjectId> out;
  store->partition(p).ForEachLiveObject(
      [&](uint64_t off) { out.insert(ObjectId(p, off)); });
  return out;
}

uint64_t CountDanglingRefs(brahma::ObjectStore* store) {
  uint64_t dangling = 0;
  for (uint32_t p = 0; p < store->num_partitions(); ++p) {
    brahma::Partition& part = store->partition(static_cast<PartitionId>(p));
    part.ForEachLiveObject([&](uint64_t off) {
      const brahma::ObjectHeader* h = part.HeaderAt(off);
      for (uint32_t i = 0; i < h->num_refs; ++i) {
        const ObjectId ref = h->refs()[i];
        if (ref.valid() && !store->Validate(ref)) ++dangling;
      }
    });
  }
  return dangling;
}

std::unordered_set<ObjectId> Reachable(brahma::ObjectStore* store) {
  std::unordered_set<ObjectId> seen;
  std::vector<ObjectId> frontier;
  const ObjectId root = store->persistent_root();
  if (root.valid() && store->Validate(root)) {
    seen.insert(root);
    frontier.push_back(root);
  }
  std::vector<ObjectId> refs;
  while (!frontier.empty()) {
    const ObjectId cur = frontier.back();
    frontier.pop_back();
    if (!brahma::ReadRefsLatched(store, cur, &refs)) continue;
    for (ObjectId c : refs) {
      if (store->Validate(c) && seen.insert(c).second) frontier.push_back(c);
    }
  }
  return seen;
}

uint64_t CountErtDiscrepancies(brahma::ObjectStore* store,
                               brahma::ErtSet* erts) {
  using Edge = std::pair<ObjectId, ObjectId>;
  uint64_t bad = 0;
  for (uint32_t p = 0; p < store->num_partitions(); ++p) {
    std::set<Edge> truth;
    for (uint32_t q = 0; q < store->num_partitions(); ++q) {
      if (q == p) continue;
      brahma::Partition& part = store->partition(static_cast<PartitionId>(q));
      part.ForEachLiveObject([&](uint64_t off) {
        const brahma::ObjectHeader* h = part.HeaderAt(off);
        const ObjectId parent(static_cast<PartitionId>(q), off);
        for (uint32_t i = 0; i < h->num_refs; ++i) {
          const ObjectId child = h->refs()[i];
          if (child.valid() && child.partition() == p) {
            truth.insert({child, parent});
          }
        }
      });
    }
    std::set<Edge> noted;
    for (const Edge& e : erts->For(static_cast<PartitionId>(p)).Entries()) {
      noted.insert(e);
    }
    for (const Edge& e : truth) bad += noted.count(e) == 0;
    for (const Edge& e : noted) bad += truth.count(e) == 0;
  }
  return bad;
}

}  // namespace perfbench

namespace {

using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports all of them, untraced.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"maint_s", "s"},     {"user_tps", "1/s"},
    {"user_p50_ms", "ms"}, {"pre_p50_ms", "ms"}, {"peak_rss_mb", "MB"},
};

// Per-layer metrics of the traced run. A workload that does not exercise
// a metric's layer reports 0 for it (README.md lists which apply where).
constexpr MetricDef kPerLayer[] = {
    {"workload.build_s", "s"},
    {"workload.failed_frac", "1"},
    {"workload.user_p90_ms", "ms"},
    {"workload.user_p95_ms", "ms"},
    {"workload.user_p99_ms", "ms"},
    {"workload.user_p999_ms", "ms"},
    {"txn.lock_wait_ms_p50", "ms"},
    {"txn.lock_wait_ms_p99", "ms"},
    {"txn.read_us_p50", "us"},
    {"txn.write_us_p50", "us"},
    {"txn.attempts_per_commit", "1"},
    {"txn.deadlocks_detected", "count"},
    {"txn.user_victims", "count"},
    {"wal.commit_ms_p50", "ms"},
    {"wal.commit_ms_p99", "ms"},
    {"wal.commits_per_batch", "1"},
    {"wal.fsyncs_per_commit", "1"},
    {"wal.records_per_commit", "1"},
    {"wal.retained_records_peak", "count"},
    {"core.quiesce_traverse_s", "s"},
    {"core.order_s", "s"},
    {"core.migrate_s", "s"},
    {"core.migrations_per_s", "1/s"},
    {"core.migration_cycle_ms_p50", "ms"},
    {"core.migration_cycle_ms_p99", "ms"},
    {"core.claim_deferrals_per_migration", "1"},
    {"core.find_exact_retries_per_migration", "1"},
    {"core.lock_timeouts", "count"},
    {"core.aborts_rolled_back", "count"},
    {"core.trt_peak", "count"},
    {"core.trt_tuples_drained", "count"},
    {"core.analyzer_lag_peak", "count"},
    {"storage.pages_read_per_scan_pre", "1"},
    {"storage.pages_read_per_scan", "1"},
    {"storage.pool_hit_rate", "1"},
    {"storage.reorg_pages_read", "count"},
    {"storage.reorg_pages_written", "count"},
    {"storage.frames_evicted", "count"},
    {"storage.dirty_writebacks", "count"},
    {"storage.warm_rescues", "count"},
    {"storage.frames_resident_peak", "count"},
    {"storage.relocation_table_peak", "count"},
    {"epoch.retired_pending_peak", "count"},
    {"epoch.latchfree_reads_per_scan", "1"},
    {"net.ping_rtt_us_p50", "us"},
    {"net.ping_rtt_us_p99", "us"},
    {"net.sessions_dropped", "count"},
    {"net.frames_rejected", "count"},
    {"net.gen_late_max_ms", "ms"},
    {"trace.op_coverage", "1"},
    {"trace.op_coverage_p5", "1"},
    {"trace.reorg_phase_gap_s", "s"},
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// {"name": {"value": v, "unit": "u"}, ...} over defs, in order.
template <size_t N>
std::string MetricsJson(Report* r, const MetricDef (&defs)[N],
                        bool required) {
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    double v = r->Get(defs[i].name);
    if (required && !r->Has(defs[i].name)) {
      r->Fail(std::string("metric not measured: ") + defs[i].name);
    }
    if (!std::isfinite(v)) {
      r->Fail(std::string("metric not finite: ") + defs[i].name);
      v = 0;
    }
    out += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
           "\": {\"value\": " + Num(v) + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  return out + "}";
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload reorg-mem|serve-disk|"
               "cluster-disk --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      Usage();
    }
  }
  if (opt.work_dir.empty() || opt.seconds <= 0) Usage();
  brahma::MakeDirs(opt.work_dir);

  Report r;
  if (opt.workload == "reorg-mem") {
    perfbench::RunReorgMem(opt, &r);
  } else if (opt.workload == "serve-disk") {
    perfbench::RunServeDisk(opt, &r);
  } else if (opt.workload == "cluster-disk") {
    perfbench::RunClusterDisk(opt, &r);
  } else {
    Usage();
  }
  r.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  const double failed_frac =
      perfbench::Ratio(static_cast<double>(r.failed_attempts()),
                       static_cast<double>(r.attempts()));
  r.Info("failed_frac", failed_frac);
  r.Set("workload.failed_frac", failed_frac, "1");
  if (r.attempted() == 0) r.Fail("no operation attempted");

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "build_type=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_BUILD_TYPE);
  std::string info = "{";
  info += "\"attempts\": " + std::to_string(r.attempts()) +
          ", \"failed_attempts\": " + std::to_string(r.failed_attempts());
  for (const auto& [k, v] : r.info()) info += ", \"" + k + "\": " + Num(v);
  std::printf("INFO %s}\n", info.c_str());
  const std::string e2e = MetricsJson(&r, kEndToEnd, /*required=*/true);
  std::printf("E2E %s\n", e2e.c_str());
  const std::string metrics =
      opt.trace ? MetricsJson(&r, kPerLayer, /*required=*/false) : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()), metrics.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
