// cluster-disk: read-only cluster scans over data larger than the buffer
// pool, before and after an IRA clustering pass (bench_buffer_pool's
// setup scaled 10x).
//
// 480 trees of 85 ~1 KiB objects are created interleaved, so every
// cluster is smeared across partition 1 (~40 MiB) behind a 2,048-frame
// (8 MiB) pool. A reader scans random whole clusters with latch-free
// reads; then ClusteringPlanner copies every cluster to partition 3 in
// BFS order, and the reader scans again. The reader is paused during the
// reorganization (README.md, known issues).

#include <thread>

#include "bench.h"
#include "common/file_util.h"
#include "common/random.h"

namespace perfbench {
namespace {

using brahma::Database;
using brahma::Random;

constexpr uint32_t kClusters = 480;
constexpr uint32_t kFanout = 4;      // 85-node 4-ary trees: 1+4+16+64
constexpr uint32_t kTreeNodes = 85;
constexpr uint32_t kDataSize = 920;  // ~1 KiB blocks: 4 objects per page
constexpr uint64_t kFrames = 2048;   // 8 MiB pool
// One reader: four readers scanned no faster (~1,540 against ~1,700
// scans/s), their p95 was 7-17 ms against 0.85 ms, and their p50 flipped
// between 0.5 and 1.3 ms from run to run (README.md, known issues).
constexpr uint32_t kReaders = 1;
constexpr uint32_t kIraWorkers = 4;
constexpr PartitionId kSource = 1, kDirectory = 2, kDest = 3;
// Each of the kRounds rounds builds, scans, reorganizes and scans again.
// Per round, the pre window is kPreWindowShare of --seconds and the post
// window 1/kRounds of it.
constexpr double kPreWindowShare = 0.1;

brahma::DatabaseOptions DbOptions(const std::string& data_dir) {
  brahma::DatabaseOptions d;
  d.num_data_partitions = 3;
  d.partition_capacity = 64ull << 20;
  d.latchfree_reads = true;
  d.commit_flush_latency = std::chrono::microseconds(0);
  d.lock_timeout = brahma::kCalibratedLockTimeout;
  d.data_backing = brahma::DataBacking::kDisk;
  d.data_dir = data_dir;
  d.buffer_pool_frames = kFrames;
  return d;
}

// Creates the clusters interleaved (node j of every cluster, then node
// j + 1, ...), wires each tree, and hangs the roots off a directory
// object in another partition. Returns the cluster roots.
Status Build(Database* db, std::vector<ObjectId>* roots) {
  std::vector<std::vector<ObjectId>> nodes(kClusters,
                                           std::vector<ObjectId>(kTreeNodes));
  for (uint32_t j = 0; j < kTreeNodes; ++j) {
    auto txn = db->Begin();
    for (uint32_t c = 0; c < kClusters; ++c) {
      Status s = txn->CreateObject(kSource, kFanout, kDataSize, &nodes[c][j]);
      if (!s.ok()) return s;
    }
    Status s = txn->Commit();
    if (!s.ok()) return s;
  }
  for (uint32_t c = 0; c < kClusters; ++c) {
    roots->push_back(nodes[c][0]);
    auto txn = db->Begin();
    for (uint32_t j = 0; j < kTreeNodes; ++j) {
      Status s = txn->Lock(nodes[c][j], brahma::LockMode::kExclusive);
      for (uint32_t k = 0; s.ok() && k < kFanout; ++k) {
        const uint32_t child = j * kFanout + k + 1;
        if (child >= kTreeNodes) break;
        s = txn->SetRef(nodes[c][j], k, nodes[c][child]);
      }
      if (!s.ok()) return s;
    }
    Status s = txn->Commit();
    if (!s.ok()) return s;
  }
  auto txn = db->Begin();
  ObjectId dir;
  Status s = txn->CreateObject(kDirectory, kClusters, 8, &dir);
  for (uint32_t c = 0; s.ok() && c < kClusters; ++c) {
    s = txn->SetRef(dir, c, (*roots)[c]);
  }
  if (s.ok()) s = txn->Commit();
  if (!s.ok()) return s;
  db->analyzer().Sync();
  return Status::Ok();
}

// One read-only scan of a whole cluster: DFS over the tree-child slots,
// ReadData at every node. Returns the number of nodes visited.
uint32_t Scan(Database* db, ObjectId root, SpanBuffer* b, uint64_t op,
              int32_t parent) {
  int32_t begin = b != nullptr ? b->Open(span::kBegin, op, parent) : -1;
  auto txn = db->Begin();
  if (b != nullptr) b->Close(begin);
  uint32_t visited = 0;
  std::vector<ObjectId> stack{root};
  std::vector<ObjectId> refs;
  std::vector<uint8_t> data;
  while (!stack.empty()) {
    const ObjectId cur = stack.back();
    stack.pop_back();
    if (!Call(b, span::kRead, op, parent,
              [&]() { return txn->ReadData(cur, &data); })
             .ok()) {
      continue;
    }
    ++visited;
    if (!Call(b, span::kRead, op, parent,
              [&]() { return txn->ReadRefs(cur, &refs); })
             .ok()) {
      continue;
    }
    for (uint32_t i = 0; i < refs.size() && i < kFanout; ++i) {
      if (refs[i].valid()) stack.push_back(refs[i]);
    }
  }
  Call(b, span::kCommit, op, parent, [&]() { return txn->Commit(); });
  return visited;
}

// Pool, disk and epoch counters, read at a phase's edges.
struct IoCounters {
  uint64_t pages_read, pages_written, hits, misses, evicted, writebacks,
      rescues, latchfree_reads;
  static IoCounters Read(Database* db) {
    brahma::BufferPool* pool = db->buffer_pool();
    brahma::DiskManager* disk = db->disk_data();
    return {disk->pages_read(),    disk->pages_written(),
            pool->pool_hits(),     pool->pool_misses(),
            pool->frames_evicted(), pool->dirty_writebacks(),
            pool->warm_rescues(),  db->epoch().latchfree_reads()};
  }
};

struct Phase {
  ClientTally tally;
  int64_t lo = 0, hi = 0;
  IoCounters before{}, after{};
  double scans() const { return static_cast<double>(tally.samples.size()); }
  uint64_t pages_read() const { return after.pages_read - before.pages_read; }
};

// The readers scan random clusters from a cold pool for `seconds`.
Phase RunScans(Database* db, const std::vector<ObjectId>& roots,
               double seconds, uint64_t seed, Tracer* tracer, Report* r) {
  Phase ph;
  Status s = db->buffer_pool()->FlushAll();
  r->Check(s.ok(), "buffer pool flush: " + s.ToString());
  std::vector<Random> rngs;
  for (uint32_t c = 0; c < kReaders; ++c) rngs.emplace_back(seed * 7919 + c);
  ph.before = IoCounters::Read(db);
  ph.lo = NowNs();
  ClosedLoop readers(
      kReaders, tracer,
      [&](uint32_t c, SpanBuffer* b, const std::atomic<bool>&,
          ClientTally* t) {
        const ObjectId root = roots[rngs[c].Uniform(roots.size())];
        const uint64_t op = (uint64_t{c + 1} << 40) + ++t->ops;
        const int64_t start = NowNs();
        const int32_t span_root =
            b != nullptr ? b->Open(span::kUserOp, op, -1) : -1;
        const uint32_t visited = Scan(db, root, b, op, span_root);
        const int64_t end = NowNs();
        if (b != nullptr) b->Close(span_root, end);
        ++t->attempts;
        if (visited == kTreeNodes) {
          t->samples.push_back({end, NsToMs(end - start)});
        } else {
          ++t->failed_ops;
          ++t->failed_attempts;
        }
        // Hand evicted pages' deferred releases to the epoch manager
        // between scans, outside the timed operation, so evicted pages
        // really go cold instead of lingering Warm in memory.
        db->buffer_pool()->FlushRetirements();
        db->epoch().AdvanceAndDrain();
      });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  readers.Stop();
  ph.hi = NowNs();
  ph.after = IoCounters::Read(db);
  ph.tally = readers.Total();
  r->AddOps(ph.tally.ops, ph.tally.failed_ops);
  r->AddAttempts(ph.tally.attempts, ph.tally.failed_attempts);
  r->Check(ph.tally.failed_ops == 0,
           std::to_string(ph.tally.failed_ops) + " scans were incomplete");
  return ph;
}

std::vector<double> Latencies(const Phase& ph) {
  std::vector<double> out;
  for (const OpSample& s : ph.tally.samples) out.push_back(s.latency_ms);
  return out;
}

// Sums of the counters the per-layer metrics need, over all rounds.
struct Totals {
  double pre_scans = 0, pre_pages = 0, post_scans = 0, post_pages = 0;
  double post_hits = 0, post_misses = 0, post_latchfree_reads = 0;
  double reorg_pages_read = 0, reorg_pages_written = 0, reorg_evicted = 0;
  double reorg_writebacks = 0, rescues = 0, attempts = 0;
};

}  // namespace

void RunClusterDisk(const Options& opt, Report* r) {
  Tracer tracer(opt.trace);
  // The scattered-layout scans get their own spans, so the per-layer
  // read and coverage numbers describe the clustered layout.
  Tracer pre_tracer(opt.trace);
  SpanBuffer* reorg_spans = tracer.NewBuffer();
  std::unique_ptr<Database> db;
  PeakSampler sampler;  // runs only while db holds a live database
  AddDatabaseGauges(&sampler, &db);
  sampler.Add("storage.frames_resident_peak", [&db]() {
    return static_cast<double>(db->buffer_pool()->frames_resident());
  });

  std::vector<double> setup_s, build_s, reorg_s, pre_p50;
  std::vector<OpSample> post_samples;
  std::vector<Window> post_windows;
  brahma::ReorgStats stats_total;
  CoreTiming timing;
  Totals tot;
  const uint64_t objects = uint64_t{kClusters} * kTreeNodes;
  const std::string dir = opt.work_dir + "/cluster-data";
  for (int round = 0; round < kRounds; ++round) {
    brahma::RemoveDirRecursive(dir);
    brahma::MakeDirs(dir);
    std::vector<ObjectId> roots;
    const int64_t t0 = NowNs();
    db = std::make_unique<Database>(DbOptions(dir));
    if (!db->data_status().ok()) {
      return r->Fail("disk data backing: " + db->data_status().ToString());
    }
    const int64_t t1 = NowNs();
    Status s = Build(db.get(), &roots);
    const int64_t t2 = NowNs();
    if (!s.ok()) return r->Fail("cluster build: " + s.ToString());
    setup_s.push_back(NsToS(t2 - t0));
    build_s.push_back(NsToS(t2 - t1));
    if (opt.trace) sampler.Start(std::chrono::milliseconds(5));

    // Before: the scattered layout.
    const uint64_t seed = (opt.seed * kRounds + round) * 2;
    const Phase pre = RunScans(db.get(), roots, kPreWindowShare * opt.seconds,
                               seed, &pre_tracer, r);

    // The clustering pass, readers paused.
    brahma::ClusteringPlanner clustering(&db->store(), kDest, roots, kFanout);
    TimedPlanner timed(&clustering, reorg_spans);
    brahma::IraOptions io;
    io.group_size = 8;
    io.num_workers = kIraWorkers;
    io.lock_timeout = brahma::kCalibratedLockTimeout;
    brahma::ReorgStats stats;
    const IoCounters io0 = IoCounters::Read(db.get());
    const int64_t r0 = NowNs();
    timed.RunStarted();
    s = db->RunIra(kSource,
                   opt.trace ? static_cast<brahma::RelocationPlanner*>(&timed)
                             : &clustering,
                   io, &stats);
    timed.RunEnded();
    const int64_t r1 = NowNs();
    const IoCounters io1 = IoCounters::Read(db.get());
    reorg_s.push_back(opt.trace ? timed.run_s() : NsToS(r1 - r0));
    r->AddOps(1, s.ok() ? 0 : 1);
    r->AddAttempts(1, s.ok() ? 0 : 1);
    r->Check(s.ok(), "IRA clustering pass: " + s.ToString());
    r->Check(stats.objects_migrated.load() == objects,
             "IRA migrated " + std::to_string(stats.objects_migrated.load()) +
                 " of " + std::to_string(objects) + " objects");
    r->Check(LiveObjects(&db->store(), kSource).empty(),
             "source partition still holds live objects after IRA");
    r->Check(LiveObjects(&db->store(), kDest).size() == objects,
             "not every cluster lives in the destination partition");

    // After: the clustered layout (stale root ids chase the relocation
    // table).
    const Phase post =
        RunScans(db.get(), roots, opt.seconds / kRounds, seed + 1,
                 &tracer, r);
    sampler.Stop();
    db.reset();
    ReleaseFreedMemory();

    pre_p50.push_back(Median(Latencies(pre)));
    post_samples.insert(post_samples.end(), post.tally.samples.begin(),
                        post.tally.samples.end());
    post_windows.push_back({post.lo, post.hi});
    if (opt.trace) timing.Add(timed);
    AccumulateStats(&stats_total, stats);
    tot.pre_scans += pre.scans();
    tot.pre_pages += static_cast<double>(pre.pages_read());
    tot.post_scans += post.scans();
    tot.post_pages += static_cast<double>(post.pages_read());
    tot.post_hits += static_cast<double>(post.after.hits - post.before.hits);
    tot.post_misses +=
        static_cast<double>(post.after.misses - post.before.misses);
    tot.post_latchfree_reads += static_cast<double>(
        post.after.latchfree_reads - post.before.latchfree_reads);
    tot.reorg_pages_read += static_cast<double>(io1.pages_read - io0.pages_read);
    tot.reorg_pages_written +=
        static_cast<double>(io1.pages_written - io0.pages_written);
    tot.reorg_evicted += static_cast<double>(io1.evicted - io0.evicted);
    tot.reorg_writebacks += static_cast<double>(io1.writebacks - io0.writebacks);
    tot.rescues +=
        static_cast<double>(post.after.rescues - pre.before.rescues);
    tot.attempts += static_cast<double>(pre.tally.attempts + post.tally.attempts);
  }
  brahma::RemoveDirRecursive(dir);

  r->Set("setup_s", Median(setup_s), "s");
  r->Set("workload.build_s", Median(build_s), "s");
  SetUserMetrics(r, post_samples, post_windows);
  r->Set("pre_p50_ms", Median(pre_p50), "ms");
  r->Set("maint_s", Median(reorg_s), "s");
  r->Info("pre_samples", tot.pre_scans);

  if (!opt.trace) return;
  r->Set("storage.pages_read_per_scan_pre", Ratio(tot.pre_pages, tot.pre_scans),
         "1");
  r->Set("storage.pages_read_per_scan", Ratio(tot.post_pages, tot.post_scans),
         "1");
  r->Set("storage.pool_hit_rate",
         Ratio(tot.post_hits, tot.post_hits + tot.post_misses), "1");
  r->Set("storage.reorg_pages_read", tot.reorg_pages_read, "count");
  r->Set("storage.reorg_pages_written", tot.reorg_pages_written,
         "count");
  r->Set("storage.frames_evicted", tot.reorg_evicted, "count");
  r->Set("storage.dirty_writebacks", tot.reorg_writebacks, "count");
  r->Set("storage.warm_rescues", tot.rescues, "count");
  r->Set("epoch.latchfree_reads_per_scan",
         Ratio(tot.post_latchfree_reads, tot.post_scans), "1");
  for (const char* g : kDatabaseGauges) r->Set(g, sampler.Peak(g), "count");
  r->Set("storage.frames_resident_peak",
         sampler.Peak("storage.frames_resident_peak"), "count");
  r->Set("txn.attempts_per_commit",
         Ratio(tot.attempts, tot.pre_scans + tot.post_scans), "1");
  double reorg_total = 0;
  for (double x : reorg_s) reorg_total += x;
  SetCoreMetrics(r, timing, stats_total, reorg_total);
  SetSpanMetrics(r, BreakDown(tracer), /*has_txn_calls=*/true);
  if (!opt.trace_out.empty() && !tracer.Dump(opt.trace_out)) {
    r->Fail("could not write " + opt.trace_out);
  }
}

}  // namespace perfbench
