// Memory-budget sweep over the shared-scan aggregation: queries 1-4 forced
// to the shared hash star join on the base table ABCD, executed unbounded
// and then under budgets shrinking from the measured working set down to
// 1/16 of it. Reported per point:
//   * cpu_ms          — wall time including spill writes, sorts and merges,
//   * page counts / modeled_ms — identical at every budget by construction
//     (spill I/O is real scratch-file I/O, never charged to the disk
//     model), asserted below,
//   * peak_mem_bytes  — the per-node accounting high-water,
//   * spill_runs / spill_bytes — how much work left memory.
// Every budgeted result is asserted BIT-identical to the unbounded run:
// sorted-run staging plus the ordered merge replays the in-memory
// aggregation fold exactly (DESIGN.md §12).

#include <algorithm>
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
      "spill_aggregate",
      StrFormat("Memory-budgeted shared scan, queries 1-4 on ABCD (%s rows)",
                WithCommas(rows).c_str()));
  StampPageLayout(report, engine);
  report.Metric("fact_rows", static_cast<double>(rows));
  report.PlanShape(PlanShapeHash(engine, plan));

  std::vector<ExecutedQuery> unbounded;
  const Measurement base_m =
      Measure(engine, [&] { unbounded = engine.Execute(plan); });
  report.Row("unbounded (in-memory)", base_m);
  for (const auto& r : unbounded) {
    SS_CHECK_MSG(r.ok(), "%s", r.status.ToString().c_str());
  }
  SS_CHECK_MSG(base_m.spill_runs == 0,
               "the unbounded run must never touch the spill path");
  // The peak gauge is the working set the budget has to beat.
  const uint64_t working_set = base_m.peak_mem_bytes;
  SS_CHECK_MSG(working_set > 0, "no memory was accounted — gauges broken?");
  report.Metric("working_set_bytes", static_cast<double>(working_set));

  for (const uint64_t divisor : {1ull, 2ull, 4ull, 8ull, 16ull}) {
    const uint64_t budget = std::max<uint64_t>(working_set / divisor, 1);
    engine.set_memory_budget_bytes(budget);
    std::vector<ExecutedQuery> budgeted;
    const Measurement m =
        Measure(engine, [&] { budgeted = engine.Execute(plan); });
    report.Row(StrFormat("budget = working set / %llu (%llu KiB)",
                         static_cast<unsigned long long>(divisor),
                         static_cast<unsigned long long>(budget / 1024)),
               m);

    for (size_t i = 0; i < unbounded.size(); ++i) {
      SS_CHECK_MSG(budgeted[i].ok(), "%s",
                   budgeted[i].status.ToString().c_str());
      SS_CHECK_MSG(BitIdentical(budgeted[i].result, unbounded[i].result),
                   "Q%d diverged from the in-memory run at budget /%llu",
                   budgeted[i].query->id(),
                   static_cast<unsigned long long>(divisor));
    }
    SS_CHECK_MSG(m.io == base_m.io,
                 "budget /%llu changed modeled I/O — spill I/O leaked into "
                 "the disk model",
                 static_cast<unsigned long long>(divisor));
    report.Metric(StrFormat("spill_bytes_div%llu",
                            static_cast<unsigned long long>(divisor)),
                  static_cast<double>(m.spill_bytes));
    report.Metric(StrFormat("slowdown_div%llu",
                            static_cast<unsigned long long>(divisor)),
                  m.cpu_ms / base_m.cpu_ms);
  }
  engine.set_memory_budget_bytes(0);

  report.Note(
      "\nEvery budgeted result is bit-identical to the unbounded run and\n"
      "all page counts (hence the 1998 modeled I/O time) are equal by\n"
      "construction: spilling trades measured CPU (sorting, writing and\n"
      "merging real scratch files) for bounded aggregation memory, while\n"
      "the modeled experiment is untouched. spill_bytes grows as the\n"
      "budget shrinks; peak_mem_bytes tracks the enforced ceiling.");
  report.Write();
  return 0;
}
