// CUBE lattice: shared base batch + smallest-parent rollups vs 16
// independent group-bys.
//
// A 4-d WITH CUBE over the paper's test schema (every dimension at its
// primed level) expands into 16 lattice levels. The baseline evaluates all
// 16 as independent queries — what a data source without the lattice
// planner would do: 16 scans (or view reads) and 16 full aggregations. The
// shared run plans the lattice (DESIGN.md §16): the finest level runs as an
// ordinary shared batch against stored data, and every coarser level
// re-aggregates its smallest already-computed parent through the
// derived-source operator, charging zero fact I/O.
//
// Hard checks (SS_CHECK — the bench aborts, and with it verify.sh, if any
// fails):
//   * every level's shared result is bit-identical to its independent run
//     (integer-valued measures make SUM re-aggregation exact),
//   * the shared run reads the compressed fact pages exactly once —
//     sequential pages == the fact table's page count, no random/index I/O,
//   * modeled I/O drops by at least 3x vs the independent baseline.

#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "common/str_util.h"
#include "core/paper_workload.h"
#include "query/cube_query.h"
#include "tests/test_util.h"

using namespace starshare;
using namespace starshare::bench;
using starshare::testing::BitIdentical;

int main() {
  const uint64_t rows = PaperWorkload::RowsFromEnv(/*fallback=*/2'000'000);
  Engine engine(StarSchema::PaperTestSchema());
  // Whole-number measures so SUM re-aggregation (the rollup path) is exact
  // in double arithmetic and "bit-identical" below is meant literally.
  engine.LoadFactTable({.num_rows = rows,
                        .seed = 19980601,
                        .integer_measures = true});

  // CUBE(A', B', C', D'): all four dimensions at the primed level; 2^4 = 16
  // lattice levels, finest first, grand total last.
  const CubeQuery cube(CubeForm::kCube, {0, 1, 2, 3}, {1, 1, 1, 1},
                       QueryPredicate{});
  const std::vector<DimensionalQuery> levels =
      cube.ExpandLevels(engine.schema(), /*first_id=*/1).value();

  BenchReport report(
      "cube", StrFormat("4-d CUBE lattice: shared + rollup vs %zu "
                        "independent group-bys (%s rows)",
                        levels.size(), WithCommas(rows).c_str()));
  StampPageLayout(report, engine);

  std::vector<ExecutedQuery> independent;
  const Measurement ind = Measure(
      engine, [&] { independent = engine.ExecuteNaive(levels); });
  for (const ExecutedQuery& r : independent) {
    SS_CHECK_MSG(r.ok(), "independent Q%d failed: %s", r.query->id(),
                 r.status.ToString().c_str());
  }

  CubeExecution exec;
  const Measurement shared = Measure(engine, [&] {
    auto run = engine.ExecuteCube(cube, OptimizerKind::kGlobalGreedy);
    SS_CHECK_MSG(run.ok(), "ExecuteCube: %s",
                 run.status().ToString().c_str());
    exec = std::move(run.value());
  });
  SS_CHECK(exec.all_ok());
  SS_CHECK(exec.results.size() == levels.size());
  report.PlanShape(engine.last_physical_plan().ShapeHash());

  report.Row(StrFormat("%zu independent group-bys", levels.size()), ind);
  report.Row(StrFormat("shared lattice (%zu base + %zu rollup)",
                       exec.lattice.NumBase(), exec.lattice.NumRollups()),
             shared);

  // Every level bit-identical to its independent evaluation.
  for (size_t i = 0; i < levels.size(); ++i) {
    SS_CHECK_MSG(BitIdentical(exec.results[i].result, independent[i].result),
                 "level %zu (%s) differs from the independent run", i,
                 levels[i].label().c_str());
  }

  // The whole lattice reads the compressed fact pages exactly once: the
  // base batch's single shared scan. Rollup levels charge no fact I/O.
  const Table& fact = engine.base_view()->table();
  SS_CHECK_MSG(shared.io.seq_pages_read == fact.num_pages(),
               "expected one fact scan (%llu pages), charged %llu",
               static_cast<unsigned long long>(fact.num_pages()),
               static_cast<unsigned long long>(shared.io.seq_pages_read));
  SS_CHECK(shared.io.rand_pages_read == 0);
  SS_CHECK(shared.io.index_pages_read == 0);

  const double reduction =
      ind.modeled_io_ms / std::max(1e-9, shared.modeled_io_ms);
  report.Metric("num_levels", static_cast<double>(levels.size()));
  report.Metric("lattice_base_levels",
                static_cast<double>(exec.lattice.NumBase()));
  report.Metric("lattice_rollup_levels",
                static_cast<double>(exec.lattice.NumRollups()));
  report.Metric("fact_pages_read_shared",
                static_cast<double>(shared.io.seq_pages_read));
  report.Metric("modeled_io_reduction", reduction);
  SS_CHECK_MSG(reduction >= 3.0,
               "modeled I/O reduction %.2fx below the 3x gate", reduction);

  report.Note(StrFormat(
      "\nLattice schedule:\n%sModeled I/O: independent %.1f ms, shared "
      "%.1f ms (%.1fx). The shared run's\nsequential pages equal the fact "
      "table's page count: the scan happened once,\nand every rollup level "
      "fed from its parent's finished groups in memory.",
      exec.lattice.ToString(engine.schema()).c_str(), ind.modeled_io_ms,
      shared.modeled_io_ms, reduction));
  report.Write();
  return 0;
}
