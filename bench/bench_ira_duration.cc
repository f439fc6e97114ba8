// Reproduces the final experiment of Section 5.3.4: PQR quiesces hard but
// finishes sooner; IRA is gentle but runs longer. If PQR's throughput is
// measured over the *duration of IRA* (so the post-reorganization period,
// when PQR has returned to NR-level throughput, counts in its favour),
// how much does IRA lose? The paper: the difference never exceeded ~3%.

#include <atomic>
#include <thread>

#include "bench/harness.h"

namespace brahma {
namespace bench {
namespace {

// Runs `scenario` but measures the driver for exactly measure_s seconds
// (reorg may finish earlier; the workload keeps running at full speed).
ExperimentResult RunForDuration(Scenario scenario, double measure_s,
                                double* reorg_ms_out) {
  ExperimentConfig cfg;
  cfg.scenario = scenario;

  DatabaseOptions dopt;
  dopt.num_data_partitions = cfg.workload.num_partitions + 1;
  dopt.partition_capacity = 8ull << 20;
  dopt.commit_flush_latency = cfg.flush_latency;
  dopt.lock_timeout = cfg.lock_timeout;
  Database db(dopt);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  Status s = builder.Build(cfg.workload, &graph);
  if (!s.ok()) std::exit(1);

  ExperimentResult result;
  std::atomic<bool> stop{false};
  std::thread timer([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(measure_s * 1e3)));
    stop.store(true);
  });
  std::thread reorg([&]() {
    if (scenario == Scenario::kNR) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int>(cfg.warmup_s * 1e3)));
    CopyOutPlanner planner(
        static_cast<PartitionId>(cfg.workload.num_partitions + 1));
    Stopwatch sw;
    if (scenario == Scenario::kIRA) {
      IraReorganizer ira(db.reorg_context());
      result.reorg_status =
          ira.Run(cfg.reorg_partition, &planner, cfg.ira, result.reorg.get());
    } else {
      PqrReorganizer pqr(db.reorg_context());
      result.reorg_status =
          pqr.Run(cfg.reorg_partition, &planner, cfg.pqr, result.reorg.get());
    }
    result.reorg_duration_ms = sw.ElapsedMillis();
    if (reorg_ms_out != nullptr) *reorg_ms_out = result.reorg_duration_ms;
  });
  WorkloadDriver driver(&db, cfg.workload, graph);
  result.driver = driver.Run([&stop]() { return stop.load(); }, 0);
  timer.join();
  reorg.join();
  return result;
}

void Run() {
  std::printf(
      "# Section 5.3.4 — PQR measured over the duration of IRA\n"
      "# (paper: throughput difference between IRA and PQR never "
      "exceeded ~3%% under this accounting)\n");
  // Pass 1: how long does IRA take (plus warmup)?
  double ira_ms = 0;
  ExperimentResult ira = RunForDuration(Scenario::kIRA, 0.5, &ira_ms);
  // Re-run both, measured over the IRA window.
  double window_s = 0.15 /*warmup*/ + ira_ms / 1e3 + 0.05;
  ExperimentResult ira2 = RunForDuration(Scenario::kIRA, window_s, nullptr);
  ExperimentResult pqr = RunForDuration(Scenario::kPQR, window_s, nullptr);

  std::printf("ira_reorg_duration_ms %.1f  measurement_window_s %.2f\n",
              ira_ms, window_s);
  PrintResponseAnalysisHeader();
  PrintResponseAnalysisRow("IRA", ira2.driver);
  PrintResponseAnalysisRow("PQR", pqr.driver);
  double diff = 0;
  if (ira2.driver.throughput_tps() > 0) {
    diff = 100.0 *
           (ira2.driver.throughput_tps() - pqr.driver.throughput_tps()) /
           ira2.driver.throughput_tps();
  }
  std::printf("throughput difference over IRA window: %.1f%%\n", diff);
  (void)ira;
}

}  // namespace
}  // namespace bench
}  // namespace brahma

int main() {
  brahma::bench::Run();
  // Nonzero when any experiment's reorganization failed or a JSON
  // artifact could not be written: CI must fail the step instead of
  // validating zeroed stats.
  return brahma::bench::ExitCode();
}
