// Ablation: batch cube construction — the paper's base-table sharing
// applied to precomputation itself. Materializing the five Table 1 views
// one at a time costs five scans (each from its cheapest source);
// one ViewBuilder::Build computes all of them in ONE shared scan of the
// base, trading repeated I/O for a wider per-tuple fan-out, exactly the
// shared-scan trade of §3.1.

#include "bench/bench_util.h"
#include "common/str_util.h"
#include "core/paper_workload.h"

using namespace starshare;
using namespace starshare::bench;

int main() {
  const uint64_t rows = PaperWorkload::RowsFromEnv();

  BenchReport report(
      "ablation_batch_cube",
      StrFormat("Ablation: batch vs sequential cube build (%s rows)",
                WithCommas(rows).c_str()));

  // Sequential: each view from the smallest available source.
  {
    Engine engine(StarSchema::PaperTestSchema());
    engine.LoadFactTable({.num_rows = rows});
    StampPageLayout(report, engine);
    engine.ConsumeIoStats();
    const Measurement m = Measure(engine, [&] {
      for (const std::string& spec : PaperWorkload::ViewSpecs()) {
        auto view = engine.MaterializeView(spec);
        SS_CHECK_MSG(view.ok(), "%s", view.status().ToString().c_str());
      }
    });
    report.Row("5 views, one at a time", m);
  }

  // Batch: all five in one shared scan of the base.
  {
    Engine engine(StarSchema::PaperTestSchema());
    engine.LoadFactTable({.num_rows = rows});
    engine.ConsumeIoStats();
    const Measurement m = Measure(engine, [&] {
      auto views = engine.MaterializeViews(PaperWorkload::ViewSpecs());
      SS_CHECK_MSG(views.ok(), "%s", views.status().ToString().c_str());
    });
    report.Row("5 views, one shared scan", m);
  }

  report.Note(
      "\nShape check: the batch build reads the base exactly once (the\n"
      "sequential build re-reads a source per view, though it can pick\n"
      "smaller sources for coarser views); CPU grows with the per-tuple\n"
      "fan-out. The same I/O-vs-CPU trade the optimizers make at query\n"
      "time, applied at precomputation time.");
  // The batch build's plan shape: one Aggregate <- Scan tree per view.
  {
    PhysicalPlan phys;
    for (const std::string& spec : PaperWorkload::ViewSpecs()) {
      LowerViewBuild(phys, spec, /*num_scans=*/1);
    }
    report.PlanShape(phys.ShapeHash());
  }
  report.Write();
  return 0;
}
