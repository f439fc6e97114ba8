// Parallel IRA migration pipeline: reorganization wall-clock and user
// impact as the number of migrator workers is varied, across MPLs, on
// the Figure 6 workload (Table 1 defaults).
//
// Expected shape: migrations commit without a log force (DESIGN.md §15),
// so a migration is bound by CPU and by lock waits on user transactions,
// not by the force. Extra workers help only while those lock waits
// dominate (higher MPL); otherwise sibling footprint deferrals and
// contention make them cost more than they overlap. The pipeline adds
// reorganizer concurrency, not reorganizer locks held per object.
//
// Emits BENCH_parallel_ira.json next to the binary's working directory.

#include <vector>

#include "bench/harness.h"

namespace brahma {
namespace bench {
namespace {

void Run() {
  std::vector<uint32_t> workers = {1, 2, 4};
  std::vector<uint32_t> mpls = {5, 10};
  WorkloadParams base;
  if (SmokeMode()) {
    workers = {1, 2};
    mpls = {4};
    base.num_partitions = 3;
    base.objects_per_partition = 85 * 4;
  } else if (FullMode()) {
    workers = {1, 2, 4, 8};
    mpls = {1, 5, 10, 20, 30};
  }

  std::printf("# Parallel IRA pipeline — reorg wall-clock and user impact "
              "vs num_workers\n");
  PrintSeriesHeader("mpl", {"workers", "reorg_ms", "speedup", "ira_tps",
                            "ira_art_ms", "lock_timeouts", "backoffs"});
  JsonBenchWriter json("parallel_ira");
  for (uint32_t mpl : mpls) {
    double base_ms = 0;
    for (uint32_t w : workers) {
      ExperimentConfig cfg;
      cfg.workload = base;
      cfg.workload.mpl = mpl;
      cfg.scenario = Scenario::kIRA;
      cfg.ira.num_workers = w;
      ExperimentResult r = RunExperiment(cfg);
      if (w == workers.front()) base_ms = r.reorg_duration_ms;
      const double speedup =
          r.reorg_duration_ms > 0 ? base_ms / r.reorg_duration_ms : 0;
      PrintSeriesRow(mpl, {static_cast<double>(w), r.reorg_duration_ms,
                           speedup, r.driver.throughput_tps(),
                           r.driver.response_ms.mean(),
                           static_cast<double>(r.reorg->lock_timeouts),
                           static_cast<double>(r.reorg->backoff_sleeps)});
      json.BeginRow();
      json.Add("mpl", mpl);
      json.Add("workers", w);
      json.Add("reorg_ms", r.reorg_duration_ms);
      json.Add("speedup_vs_first", speedup);
      json.Add("user_tps", r.driver.throughput_tps());
      json.Add("user_art_ms", r.driver.response_ms.mean());
      json.Add("objects_migrated",
               static_cast<double>(r.reorg->objects_migrated));
      json.Add("lock_timeouts", static_cast<double>(r.reorg->lock_timeouts));
      json.Add("backoff_sleeps",
               static_cast<double>(r.reorg->backoff_sleeps));
      json.Add("reorg_ok", r.reorg_status.ok() ? 1 : 0);
    }
  }
  if (!json.WriteFile("BENCH_parallel_ira.json")) {
    std::fprintf(stderr, "failed to write BENCH_parallel_ira.json\n");
    NoteFailure();
  }
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
