// serve-disk: the paper's transaction mix over the wire with durable
// commits and no reorganization.
//
// An in-process NetServer (4 workers) serves the Section 5.2 graph from
// a database whose WAL lives on disk (Durability::kDisk, the modeled
// 0.8 ms force). 4
// closed-loop NetClient connections send kTraverse requests; one request
// in 16 is instead a Begin/Update/Commit of a known payload to an object
// the connection owns, and another one in 16 is a Ping. After the
// window the server stops, the database crashes and recovers, and every
// acknowledged payload must read back.

#include <cstring>
#include <thread>

#include "bench.h"
#include "common/file_util.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/graph_builder.h"

namespace perfbench {
namespace {

using brahma::BuiltGraph;
using brahma::Database;
using brahma::WorkloadParams;
using brahma::net::NetClient;
using brahma::net::NetServer;

constexpr uint32_t kConnections = 4;
constexpr uint32_t kServerWorkers = 4;
constexpr uint32_t kOwnedPerConnection = 16;
constexpr uint32_t kPayloadBytes = 16;
// Request k of a connection is a Ping when k % 16 == 15, a payload
// transaction when k % 16 == 7, and a traverse otherwise.
constexpr uint64_t kMixPeriod = 16;
constexpr uint64_t kPingSlot = 15;
constexpr uint64_t kPayloadSlot = 7;
constexpr PartitionId kOwnedPartition = 5;
constexpr double kPreWindowShare = 0.2;  // share of --seconds
// Recovery of one round's log takes ~0.1 s; the median of several
// crash/recover cycles keeps one disturbed cycle from moving maint_s.
constexpr int kRecoveries = 5;

WorkloadParams Params(uint64_t seed) {
  WorkloadParams w;
  w.num_partitions = 4;
  w.objects_per_partition = 4080;
  w.mpl = kConnections;
  w.ops_per_txn = 8;
  w.update_prob = 0.5;
  w.ref_mutation_prob = 0.2;
  w.seed = seed;
  return w;
}

// A served database. Members are declared so that the implicit
// destructor closes the clients, then stops the server, then drops the
// database; TearDown does the same for reuse.
struct Served {
  std::unique_ptr<Database> db;
  BuiltGraph graph;
  std::vector<std::vector<ObjectId>> owned;  // [connection][slot]
  std::unique_ptr<NetServer> server;
  std::vector<NetClient> clients;
};

void TearDown(Served* sv) {
  sv->clients.clear();
  sv->server.reset();
  sv->owned.clear();
  sv->graph = BuiltGraph();
  sv->db.reset();
}

Status SetUp(const std::string& wal_dir, const WorkloadParams& w,
             Served* out, double* build_s) {
  brahma::DatabaseOptions d;
  d.num_data_partitions = w.num_partitions + 1;  // the last holds owned objects
  d.partition_capacity =
      std::max<uint64_t>(8ull << 20, w.objects_per_partition * 512ull);
  d.lock_timeout = brahma::kCalibratedLockTimeout;
  d.durability = brahma::Durability::kDisk;
  d.wal_dir = wal_dir;
  // Every WAL frame is written to its segment file, and a force pays the
  // modeled 0.8 ms device latency every bench charges instead of
  // fsync(2): the host's real fsync latency drifted in seconds-long
  // episodes, and with no device latency at all the sub-0.2 ms requests
  // measured the host's thread wake-up delays (README.md, known issues).
  d.fsync_mode = brahma::FsyncMode::kNoop;
  d.commit_flush_latency = brahma::kCommitForceLatency;
  out->db = std::make_unique<Database>(d);
  if (!out->db->durability_status().ok()) return out->db->durability_status();
  const int64_t t0 = NowNs();
  Status s = brahma::GraphBuilder(out->db.get()).Build(w, &out->graph);
  *build_s = NsToS(NowNs() - t0);
  if (!s.ok()) return s;
  auto txn = out->db->Begin();
  out->owned.assign(kConnections, std::vector<ObjectId>(kOwnedPerConnection));
  for (auto& conn : out->owned) {
    for (ObjectId& oid : conn) {
      s = txn->CreateObject(kOwnedPartition, 0, kPayloadBytes, &oid);
      if (!s.ok()) return s;
    }
  }
  s = txn->Commit();
  if (s.ok()) s = out->db->Checkpoint();
  if (!s.ok()) return s;

  brahma::net::ServerOptions so;
  so.num_workers = kServerWorkers;
  so.graph = &out->graph;
  so.workload = w;
  out->server = std::make_unique<NetServer>(out->db.get(), so);
  s = out->server->Start();
  if (!s.ok()) return s;
  out->clients.resize(kConnections);
  for (NetClient& c : out->clients) {
    s = c.Connect("127.0.0.1", out->server->port());
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

std::vector<uint8_t> Payload(uint32_t conn, uint64_t seq) {
  std::vector<uint8_t> p(kPayloadBytes, 0);
  std::memcpy(p.data(), &conn, sizeof(conn));
  std::memcpy(p.data() + 8, &seq, sizeof(seq));
  return p;
}

bool Retryable(const Status& s) {
  return s.IsTimedOut() || s.IsDeadlockVictim() || s.IsAborted() ||
         s.IsBusy();
}

// Per-connection state beyond the shared tallies.
struct Conn {
  uint64_t requests = 0;
  int64_t last_end_ns = 0;
  int64_t late_max_ns = 0;
  uint64_t payload_seq = 0;
  uint64_t pings = 0;
  uint64_t failed_pings = 0;
  std::vector<uint64_t> acked;  // per owned slot: last acknowledged seq, 0 = none
  bool broken = false;
};

// What the rounds measured, summed or pooled.
struct Totals {
  std::vector<double> setup_s, build_s, recover_s, pre_p50;
  std::vector<OpSample> samples;
  std::vector<Window> windows;
  ClientTally users;
  LogLockCounters counters;
  uint64_t pings = 0, failed_pings = 0, dropped = 0, rejected = 0;
  uint64_t verified = 0;
  int64_t late_max_ns = 0;
};

// One round: set up, serve for `seconds`, stop, crash, recover, verify.
void ServeRound(const Options& opt, const WorkloadParams& w, int round,
                double seconds, Tracer* tracer, PeakSampler* sampler,
                Served* sv_out, Totals* tot, Report* r) {
  Served& sv = *sv_out;
  const std::string wal_dir = opt.work_dir + "/serve-wal";
  brahma::RemoveDirRecursive(wal_dir);
  brahma::MakeDirs(wal_dir);
  double build_s = 0;
  const int64_t t0 = NowNs();
  Status st = SetUp(wal_dir, w, &sv, &build_s);
  if (!st.ok()) {
    TearDown(&sv);
    return r->Fail("serve set-up: " + st.ToString());
  }
  tot->setup_s.push_back(NsToS(NowNs() - t0));
  tot->build_s.push_back(build_s);
  Database* db = sv.db.get();
  if (opt.trace) sampler->Start(std::chrono::milliseconds(5));

  std::vector<Conn> conns(kConnections);
  for (Conn& c : conns) c.acked.assign(kOwnedPerConnection, 0);
  const LogLockCounters c0 = LogLockCounters::Read(db);
  const int64_t lo = NowNs();
  ClosedLoop loop(
      kConnections, tracer,
      [&](uint32_t c, SpanBuffer* b, const std::atomic<bool>& stopping,
          ClientTally* t) {
        Conn& conn = conns[c];
        NetClient& client = sv.clients[c];
        if (conn.broken) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return;
        }
        const int64_t ready = NowNs();
        if (conn.last_end_ns != 0) {
          conn.late_max_ns = std::max(conn.late_max_ns, ready - conn.last_end_ns);
        }
        const uint64_t k = conn.requests++;
        const uint64_t op = (uint64_t{c + 1} << 40) + k;
        if (k % kMixPeriod == kPingSlot) {
          ++conn.pings;
          Status s = Call(b, span::kNetPing, op, -1,
                          [&]() { return client.Ping(); });
          conn.last_end_ns = NowNs();
          if (!s.ok()) {
            std::fprintf(stderr, "connection %u ping: %s\n", c,
                         s.ToString().c_str());
            conn.broken = true;
            ++conn.failed_pings;
          }
          return;
        }

        ++t->ops;
        const int64_t start = NowNs();
        const int32_t root = b != nullptr ? b->Open(span::kUserOp, op, -1) : -1;
        const bool payload_op = k % kMixPeriod == kPayloadSlot;
        const uint32_t slot =
            static_cast<uint32_t>((k / kMixPeriod) % kOwnedPerConnection);
        const uint64_t seq = payload_op ? ++conn.payload_seq : 0;
        uint32_t retries_after_stop = 0;
        Status s;
        for (;;) {
          ++t->attempts;
          if (payload_op) {
            s = Call(b, span::kNetCall, op, root,
                     [&]() { return client.Begin(); });
            if (s.ok()) {
              s = Call(b, span::kNetCall, op, root, [&]() {
                return client.Update(sv.owned[c][slot], Payload(c, seq));
              });
              if (s.ok()) {
                s = Call(b, span::kNetCall, op, root,
                         [&]() { return client.Commit(); });
              } else if (client.connected()) {
                Call(b, span::kNetCall, op, root,
                     [&]() { return client.Abort(); });
              }
            }
          } else {
            brahma::net::TraverseRequest req;
            req.home_partition = 1 + (c % w.num_partitions);
            req.steps = w.ops_per_txn;
            req.update_permille = 500;
            req.ref_mutation_permille = 200;
            req.seed = ((opt.seed * kRounds + round) * 1000003 + c) *
                           0x9E3779B97F4A7C15ull +
                       k;
            s = Call(b, span::kNetCall, op, root,
                     [&]() { return client.Traverse(req); });
          }
          if (s.ok() || !Retryable(s)) break;
          ++t->failed_attempts;
          if (stopping.load() && ++retries_after_stop > 100) break;
        }
        const int64_t end = NowNs();
        conn.last_end_ns = end;
        if (b != nullptr) b->Close(root, end);
        if (s.ok()) {
          t->samples.push_back({end, NsToMs(end - start)});
          if (payload_op) conn.acked[slot] = seq;
        } else {
          ++t->failed_ops;
          if (!Retryable(s)) {
            ++t->failed_attempts;
            std::fprintf(stderr, "connection %u: %s\n", c,
                         s.ToString().c_str());
            conn.broken = true;
          }
        }
      });

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  loop.Stop();
  const int64_t hi = NowNs();
  tot->counters.AddDelta(c0, LogLockCounters::Read(db));
  sampler->Stop();

  sv.clients.clear();
  sv.server->Stop();
  tot->dropped += sv.server->sessions_dropped();
  tot->rejected += sv.server->frames_rejected();

  // Crash and recover kRecoveries times (each replays the same log from
  // the set-up checkpoint), then read back every acknowledged payload.
  std::vector<double> recover_s;
  Status rs;
  for (int i = 0; i < kRecoveries && rs.ok(); ++i) {
    db->SimulateCrash();
    const int64_t rec0 = NowNs();
    rs = db->Recover();
    recover_s.push_back(NsToS(NowNs() - rec0));
  }
  tot->recover_s.push_back(Median(recover_s));
  r->Check(rs.ok(), "recovery: " + rs.ToString());
  for (uint32_t c = 0; rs.ok() && c < kConnections; ++c) {
    for (uint32_t slot = 0; slot < kOwnedPerConnection; ++slot) {
      if (conns[c].acked[slot] == 0) continue;
      auto txn = db->Begin();
      std::vector<uint8_t> data;
      Status s = txn->Lock(sv.owned[c][slot], brahma::LockMode::kShared);
      if (s.ok()) s = txn->ReadData(sv.owned[c][slot], &data);
      txn->Commit();
      r->Check(s.ok() && data == Payload(c, conns[c].acked[slot]),
               "acknowledged payload of connection " + std::to_string(c) +
                   " slot " + std::to_string(slot) + " lost in recovery");
      ++tot->verified;
    }
  }
  TearDown(&sv);
  ReleaseFreedMemory();
  brahma::RemoveDirRecursive(wal_dir);

  const ClientTally users = loop.Total();
  const int64_t split = lo + static_cast<int64_t>(kPreWindowShare *
                                                  static_cast<double>(hi - lo));
  tot->pre_p50.push_back(Median(LatenciesIn(users.samples, lo, split)));
  tot->windows.push_back({split, hi});
  tot->samples.insert(tot->samples.end(), users.samples.begin(),
                      users.samples.end());
  tot->users.ops += users.ops;
  tot->users.failed_ops += users.failed_ops;
  tot->users.attempts += users.attempts;
  tot->users.failed_attempts += users.failed_attempts;
  for (const Conn& c : conns) {
    tot->pings += c.pings;
    tot->failed_pings += c.failed_pings;
    tot->late_max_ns = std::max(tot->late_max_ns, c.late_max_ns);
  }
}

}  // namespace

void RunServeDisk(const Options& opt, Report* r) {
  const WorkloadParams w = Params(opt.seed);
  Tracer tracer(opt.trace);
  Served sv;
  PeakSampler sampler;  // runs only while sv holds a live database
  AddDatabaseGauges(&sampler, &sv.db);
  Totals tot;
  for (int round = 0; round < kRounds && r->correct(); ++round) {
    ServeRound(opt, w, round, opt.seconds / kRounds, &tracer, &sampler, &sv,
               &tot, r);
  }
  if (!r->correct()) return;

  r->Check(tot.dropped == 0, std::to_string(tot.dropped) + " sessions dropped");
  r->Check(tot.rejected == 0,
           std::to_string(tot.rejected) + " frames rejected");
  r->Check(tot.failed_pings == 0,
           std::to_string(tot.failed_pings) + " pings failed");
  r->Check(tot.users.failed_ops == 0,
           std::to_string(tot.users.failed_ops) + " operations failed");
  r->Check(tot.verified > 0, "no payload was acknowledged");
  r->Info("payloads_verified", static_cast<double>(tot.verified));

  r->Set("setup_s", Median(tot.setup_s), "s");
  r->Set("workload.build_s", Median(tot.build_s), "s");
  SetUserMetrics(r, tot.samples, tot.windows);
  r->Set("pre_p50_ms", Median(tot.pre_p50), "ms");
  r->Set("maint_s", Median(tot.recover_s), "s");
  // Pings count as operations too, so a dead connection shows as failed.
  r->AddOps(tot.users.ops + tot.pings,
            tot.users.failed_ops + tot.failed_pings + tot.dropped);
  r->AddAttempts(tot.users.attempts + tot.pings,
                 tot.users.failed_attempts + tot.failed_pings + tot.dropped);

  if (!opt.trace) return;
  const double commits = static_cast<double>(tot.samples.size());
  r->Set("txn.attempts_per_commit",
         Ratio(static_cast<double>(tot.users.attempts), commits), "1");
  SetLogLockMetrics(r, tot.counters, commits);
  for (const char* g : kDatabaseGauges) r->Set(g, sampler.Peak(g), "count");
  r->Set("net.sessions_dropped", static_cast<double>(tot.dropped), "count");
  r->Set("net.frames_rejected", static_cast<double>(tot.rejected), "count");
  r->Set("net.gen_late_max_ms", NsToMs(tot.late_max_ns), "ms");
  SetSpanMetrics(r, BreakDown(tracer), /*has_txn_calls=*/false);
  if (!opt.trace_out.empty() && !tracer.Dump(opt.trace_out)) {
    r->Fail("could not write " + opt.trace_out);
  }
}

}  // namespace perfbench
