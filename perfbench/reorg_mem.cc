// reorg-mem: the paper's Section 5 experiment. IRA copies one partition
// out while MPL-4 random-walk transactions run against the same graph,
// everything in memory, with the modeled 0.8 ms commit force.
//
// A run is kRounds rounds or more, until the reorganization windows add
// up to --seconds. Each round builds a fresh graph, runs the clients
// alone for a pre window (the paper's NR baseline: pre_p50_ms), copies
// partition 1 to the spare partition while they keep running, and checks
// the paper's invariants on the quiescent result. User metrics cover the
// reorganization windows only. A fresh graph per round keeps every pass
// the same work: reorganizing the same data back and forth let the
// retained log cross the truncation threshold, and later passes took
// 12-19 s instead of 8 s.

#include <thread>

#include "bench.h"
#include "common/random.h"
#include "workload/graph_builder.h"

namespace perfbench {
namespace {

using brahma::BuiltGraph;
using brahma::Database;
using brahma::LockMode;
using brahma::Random;
using brahma::Transaction;
using brahma::WorkloadParams;

constexpr uint32_t kClients = 4;
constexpr uint32_t kIraWorkers = 4;
constexpr double kPreWindowShare = 0.1;  // NR window, share of --seconds

WorkloadParams Params(uint64_t seed) {
  WorkloadParams w;
  w.num_partitions = 4;
  w.objects_per_partition = 4 * 4080;  // 4x NUMOBJS
  w.mpl = kClients;
  w.ops_per_txn = 8;
  w.update_prob = 0.5;
  w.ref_mutation_prob = 0.2;
  w.seed = seed;
  return w;
}

brahma::DatabaseOptions DbOptions(const WorkloadParams& w) {
  brahma::DatabaseOptions d;
  d.num_data_partitions = w.num_partitions + 1;  // the last one is spare
  d.partition_capacity =
      std::max<uint64_t>(8ull << 20, w.objects_per_partition * 512ull);
  d.commit_flush_latency = brahma::kCommitForceLatency;
  d.group_commit = true;
  d.lock_timeout = brahma::kCalibratedLockTimeout;
  d.log_truncate_threshold = 500000;
  return d;
}

// One attempt at the Section 5.2 transaction. This is
// workload/random_walk.cc's RunWalkOnce for strict 2PL with locked reads,
// with a span around every call into the library; it draws from the RNG
// in the same order.
Status WalkOnce(Database* db, const WorkloadParams& params,
                const BuiltGraph& graph, uint32_t home, Random* rng,
                SpanBuffer* b, uint64_t op, int32_t root) {
  int32_t begin = b != nullptr ? b->Open(span::kBegin, op, root) : -1;
  std::unique_ptr<Transaction> txn = db->Begin();
  if (b != nullptr) b->Close(begin);
  auto fail = [&](Status s) {
    Call(b, span::kAbort, op, root, [&]() { return txn->Abort(); });
    return s;
  };

  const ObjectId dir = graph.partition_dirs[home - 1];
  Status s = Call(b, span::kLock, op, root,
                  [&]() { return txn->Lock(dir, LockMode::kShared); });
  if (!s.ok()) return fail(s);
  std::vector<ObjectId> roots;
  s = Call(b, span::kRead, op, root, [&]() { return txn->ReadRefs(dir, &roots); });
  if (!s.ok()) return fail(s);
  if (roots.empty()) return fail(Status::Internal("empty directory"));
  ObjectId current = roots[rng->Uniform(roots.size())];

  std::vector<ObjectId> refs;
  std::vector<uint8_t> payload(params.data_size);
  for (uint32_t step = 0; step < params.ops_per_txn; ++step) {
    const bool update = rng->Bernoulli(params.update_prob);
    s = Call(b, span::kLock, op, root, [&]() {
      return txn->Lock(current,
                       update ? LockMode::kExclusive : LockMode::kShared);
    });
    if (!s.ok()) return fail(s);
    s = Call(b, span::kRead, op, root,
             [&]() { return txn->ReadRefs(current, &refs); });
    if (!s.ok()) return fail(s);
    if (update) {
      for (auto& byte : payload) byte = static_cast<uint8_t>(rng->Next());
      s = Call(b, span::kWrite, op, root,
               [&]() { return txn->WriteData(current, payload); });
      if (!s.ok()) return fail(s);
      if (rng->Bernoulli(params.ref_mutation_prob) &&
          !txn->local_refs().empty()) {
        ObjectId old_glue;
        s = Call(b, span::kRead, op, root, [&]() {
          return txn->ReadRef(current, WorkloadParams::kGlueSlot, &old_glue);
        });
        if (!s.ok()) return fail(s);
        const ObjectId target =
            rng->Bernoulli(0.5) && old_glue.valid()
                ? old_glue
                : txn->local_refs()[rng->Uniform(txn->local_refs().size())];
        s = Call(b, span::kWrite, op, root, [&]() {
          return txn->SetRef(current, WorkloadParams::kGlueSlot,
                             ObjectId::Invalid());
        });
        if (s.ok()) {
          s = Call(b, span::kWrite, op, root, [&]() {
            return txn->SetRef(current, WorkloadParams::kGlueSlot, target);
          });
        }
        if (!s.ok()) return fail(s);
      }
    }
    std::vector<ObjectId> valid;
    for (ObjectId ref : refs) {
      if (ref.valid()) valid.push_back(ref);
    }
    ObjectId next;
    if (!valid.empty()) {
      next = valid[rng->Uniform(valid.size())];
    } else if (!txn->local_refs().empty()) {
      next = txn->local_refs()[rng->Uniform(txn->local_refs().size())];
    } else {
      break;  // dead end
    }
    current = next;
  }
  return Call(b, span::kCommit, op, root, [&]() { return txn->Commit(); });
}

}  // namespace

void RunReorgMem(const Options& opt, Report* r) {
  const WorkloadParams w = Params(opt.seed);
  const PartitionId src = 1;
  const PartitionId dst = static_cast<PartitionId>(w.num_partitions + 1);
  Tracer tracer(opt.trace);
  SpanBuffer* reorg_spans = tracer.NewBuffer();
  std::unique_ptr<Database> db;
  PeakSampler sampler;  // runs only while db holds a live database
  AddDatabaseGauges(&sampler, &db);

  std::vector<double> setup_s, build_s, reorg_s, pre_p50;
  std::vector<OpSample> samples;
  std::vector<Window> windows;
  brahma::ReorgStats totals;
  CoreTiming timing;
  LogLockCounters counters;
  ClientTally users;
  uint64_t during = 0, passes_failed = 0;
  double reorg_total_s = 0;
  for (int round = 0; round < kRounds || reorg_total_s < opt.seconds;
       ++round) {
    BuiltGraph graph;
    const int64_t t0 = NowNs();
    db = std::make_unique<Database>(DbOptions(w));
    const int64_t t1 = NowNs();
    Status s = brahma::GraphBuilder(db.get()).Build(w, &graph);
    const int64_t t2 = NowNs();
    if (!s.ok()) return r->Fail("graph build: " + s.ToString());
    setup_s.push_back(NsToS(t2 - t0));
    build_s.push_back(NsToS(t2 - t1));
    const std::unordered_set<ObjectId> reachable_before =
        Reachable(&db->store());
    if (opt.trace) sampler.Start(std::chrono::milliseconds(5));

    // Home partitions as WorkloadDriver assigns them; seeds differ per
    // round.
    std::vector<Random> rngs;
    for (uint32_t c = 0; c < kClients; ++c) {
      rngs.emplace_back((w.seed * kRounds + round) * 1000003 + c);
    }
    const int64_t users_start = NowNs();
    ClosedLoop clients(
        kClients, &tracer,
        [&](uint32_t c, SpanBuffer* b, const std::atomic<bool>& stopping,
            ClientTally* t) {
          const uint32_t home = 1 + (c % w.num_partitions);
          const uint64_t op = (uint64_t{c + 1} << 40) + ++t->ops;
          const int64_t start = NowNs();
          const int32_t root =
              b != nullptr ? b->Open(span::kUserOp, op, -1) : -1;
          uint32_t retries_after_stop = 0;
          bool committed = false;
          for (;;) {
            ++t->attempts;
            if (WalkOnce(db.get(), w, graph, home, &rngs[c], b, op, root)
                    .ok()) {
              committed = true;
              break;
            }
            ++t->failed_attempts;
            // Retry until commit, as WorkloadDriver does; once the round
            // is over, give a stuck operation a bounded number of tries.
            if (stopping.load() && ++retries_after_stop > 100) break;
          }
          const int64_t end = NowNs();
          if (b != nullptr) b->Close(root, end);
          if (committed) {
            t->samples.push_back({end, NsToMs(end - start)});
          } else {
            ++t->failed_ops;
          }
        });
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kPreWindowShare * opt.seconds));

    const std::unordered_set<ObjectId> live_before =
        LiveObjects(&db->store(), src);
    brahma::CopyOutPlanner copy_out(dst);
    TimedPlanner timed(&copy_out, reorg_spans);
    brahma::IraOptions io;
    io.num_workers = kIraWorkers;
    io.lock_timeout = brahma::kCalibratedLockTimeout;
    brahma::ReorgStats stats;
    const LogLockCounters c0 = LogLockCounters::Read(db.get());
    const int64_t r0 = NowNs();
    timed.RunStarted();
    s = db->RunIra(src,
                   opt.trace ? static_cast<brahma::RelocationPlanner*>(&timed)
                             : &copy_out,
                   io, &stats);
    timed.RunEnded();
    const int64_t r1 = NowNs();
    counters.AddDelta(c0, LogLockCounters::Read(db.get()));
    clients.Stop();
    sampler.Stop();

    const double secs = opt.trace ? timed.run_s() : NsToS(r1 - r0);
    reorg_s.push_back(secs);
    reorg_total_s += secs;
    windows.push_back({r0, r1});
    if (opt.trace) timing.Add(timed);
    AccumulateStats(&totals, stats);
    const ClientTally round_users = clients.Total();
    pre_p50.push_back(Median(LatenciesIn(round_users.samples, users_start, r0)));
    during += LatenciesIn(round_users.samples, r0, r1).size();
    samples.insert(samples.end(), round_users.samples.begin(),
                   round_users.samples.end());
    users.ops += round_users.ops;
    users.failed_ops += round_users.failed_ops;
    users.attempts += round_users.attempts;
    users.failed_attempts += round_users.failed_attempts;

    // The paper's invariants, on the quiescent database.
    if (!s.ok()) {
      ++passes_failed;
      r->Fail("IRA: " + s.ToString());
      break;
    }
    r->Check(LiveObjects(&db->store(), src).empty(),
             "source partition still holds live objects after IRA");
    const std::unordered_map<ObjectId, ObjectId> reloc =
        stats.RelocationSnapshot();
    bool same = reloc.size() == live_before.size();
    for (const auto& [from, to] : reloc) {
      same = same && live_before.count(from) > 0 && to.partition() == dst &&
             db->store().Validate(to);
    }
    r->Check(same, "migrated objects differ from the objects live before");
    db->analyzer().Sync();
    r->Check(CountDanglingRefs(&db->store()) == 0,
             "a valid reference points at a dead object");
    r->Check(CountErtDiscrepancies(&db->store(), &db->erts()) == 0,
             "an ERT differs from its recomputation");
    std::unordered_set<ObjectId> expected;
    for (ObjectId id : reachable_before) {
      auto it = reloc.find(id);
      expected.insert(it != reloc.end() ? it->second : id);
    }
    r->Check(expected == Reachable(&db->store()),
             "the reachable set changed across the reorganization");
    db.reset();
    ReleaseFreedMemory();
  }

  r->Set("setup_s", Median(setup_s), "s");
  r->Set("workload.build_s", Median(build_s), "s");
  SetUserMetrics(r, samples, windows);
  r->Set("maint_s", Median(reorg_s), "s");
  r->Set("pre_p50_ms", Median(pre_p50), "ms");
  for (size_t i = 0; i < reorg_s.size(); ++i) {
    r->Info("reorg_s." + std::to_string(i + 1), reorg_s[i]);
  }
  r->AddOps(users.ops + reorg_s.size(), users.failed_ops + passes_failed);
  r->AddAttempts(users.attempts + reorg_s.size(),
                 users.failed_attempts + passes_failed);

  if (!opt.trace) return;
  // Per-layer metrics (traced run).
  const double commits = static_cast<double>(during);
  r->Set("txn.attempts_per_commit",
         Ratio(static_cast<double>(users.attempts),
               static_cast<double>(samples.size())),
         "1");
  SetLogLockMetrics(r, counters, commits);
  for (const char* g : kDatabaseGauges) r->Set(g, sampler.Peak(g), "count");
  SetCoreMetrics(r, timing, totals, reorg_total_s);
  SetSpanMetrics(r, BreakDown(tracer), /*has_txn_calls=*/true);
  if (!opt.trace_out.empty() && !tracer.Dump(opt.trace_out)) {
    r->Fail("could not write " + opt.trace_out);
  }
}

}  // namespace perfbench
