// Morsel-parallel shared scan: thread-count sweep on the paper workload.
//
// Queries 1-4 forced to the shared hash star join on the base table ABCD
// (the Figure 10 k=4 configuration), executed serially and then at
// parallelism 1/2/4/8 through the same engine. Reported per point:
//   * cpu_ms     — wall time of the whole shared pass (scan + ordered merge),
//   * page counts / modeled_ms — identical at every thread count by
//     construction (page-aligned morsels, per-worker DiskModels merged
//     exactly), asserted below,
//   * speedup    — serial cpu_ms / parallel cpu_ms.
// Every parallel result is asserted BIT-identical to the serial run: the
// ordered match-buffer merge replays the serial aggregation fold exactly.
//
// Speedup scales with physical cores; BENCH_parallel_scan.json records
// hardware_threads so a 1-core container reporting ~1x is distinguishable
// from a regression on real hardware.

#include <vector>

#include "bench/bench_util.h"
#include "common/str_util.h"
#include "core/paper_workload.h"
#include "tests/test_util.h"

using namespace starshare;
using namespace starshare::bench;
using starshare::testing::BitIdentical;

int main() {
  const uint64_t rows = PaperWorkload::RowsFromEnv(2'000'000);
  Engine engine(StarSchema::PaperTestSchema());
  PaperWorkload::Setup(engine, rows);

  std::vector<DimensionalQuery> queries =
      PaperWorkload::MakeQueries(engine, {1, 2, 3, 4});
  const std::vector<JoinMethod> methods(queries.size(),
                                        JoinMethod::kHashScan);
  const GlobalPlan plan = ForcedClassPlan(engine, queries, "ABCD", methods);

  BenchReport report(
      "parallel_scan",
      StrFormat("Morsel-parallel shared scan, queries 1-4 on ABCD (%s rows, "
                "%zu hardware threads)",
                WithCommas(rows).c_str(), ThreadPool::HardwareThreads()));
  StampPageLayout(report, engine);
  report.Metric("fact_rows", static_cast<double>(rows));
  report.Metric("hardware_threads",
                static_cast<double>(ThreadPool::HardwareThreads()));
  report.PlanShape(PlanShapeHash(engine, plan));

  std::vector<ExecutedQuery> serial;
  const Measurement serial_m =
      Measure(engine, [&] { serial = engine.Execute(plan); });
  report.Row("serial shared scan", serial_m);
  for (const auto& r : serial) {
    SS_CHECK_MSG(r.ok(), "%s", r.status.ToString().c_str());
  }

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    engine.set_parallelism(threads);
    std::vector<ExecutedQuery> parallel;
    const Measurement m =
        Measure(engine, [&] { parallel = engine.Execute(plan); });
    report.Row(StrFormat("parallel, %zu thread%s", threads,
                         threads == 1 ? "" : "s"),
               m);

    for (size_t i = 0; i < serial.size(); ++i) {
      SS_CHECK_MSG(parallel[i].ok(), "%s",
                   parallel[i].status.ToString().c_str());
      SS_CHECK_MSG(BitIdentical(parallel[i].result, serial[i].result),
                   "Q%d diverged from serial at %zu threads",
                   parallel[i].query->id(), threads);
    }
    SS_CHECK_MSG(m.io == serial_m.io,
                 "%zu-thread scan charged different I/O than serial",
                 threads);
    report.Metric(StrFormat("speedup_%zu_threads", threads),
                  serial_m.cpu_ms / m.cpu_ms);
  }
  engine.set_parallelism(1);

  report.Note(
      "\nAll parallel results are bit-identical to serial, and all page\n"
      "counts (hence the 1998 modeled I/O time) are equal by construction;\n"
      "only cpu_ms divides across cores. Speedup is bounded by\n"
      "hardware_threads — on a single-core host every configuration\n"
      "measures ~1x.");
  report.Write();
  return 0;
}
