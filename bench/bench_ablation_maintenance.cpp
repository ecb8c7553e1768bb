// Ablation: incremental view maintenance and the result cache — the two
// lifecycle features around the paper's core (its intro motivates efficient
// "creating and maintaining precomputed group-bys"; dashboards re-issue the
// same MDX constantly).
//
// Part 1: append 5% new facts and refresh the Table 1 views incrementally
// (old view + delta) vs. rebuilding them from the grown base. Both cubes
// must answer paper Tests 4-7 alike, and every view's statistics and index
// lookups must match member by member, so a refresh or splice bug fails
// the bench.
// Part 2: run the Test 4 MDX twice with the result cache on — the second
// round must cost zero I/O.

#include "bench/bench_util.h"
#include "common/str_util.h"
#include "core/paper_workload.h"

using namespace starshare;
using namespace starshare::bench;

namespace {

// Paper Tests 4-7 (Table 2's query sets) under GG, in a fixed order.
std::vector<QueryResult> AnswerTests4To7(Engine& engine) {
  std::vector<QueryResult> results;
  for (const std::vector<int>& ids : std::vector<std::vector<int>>{
           {1, 2, 3}, {2, 3, 5}, {6, 7, 8}, {1, 7, 9}}) {
    const auto queries = PaperWorkload::MakeQueries(engine, ids);
    const GlobalPlan plan =
        engine.Optimize(queries, OptimizerKind::kGlobalGreedy);
    for (ExecutedQuery& executed : engine.Execute(plan)) {
      SS_CHECK_MSG(executed.ok(), "Q%d failed: %s", executed.query->id(),
                   executed.status.ToString().c_str());
      results.push_back(std::move(executed.result));
    }
  }
  return results;
}

// Every view of `got` counts the same rows under every member of every
// level as `want`'s view at its spec, indexes the same dimensions, and
// looks up the same rows. Row order depends only on keys, so this holds
// exactly even where real-valued sums differ in their last bits.
void CheckSameStatsAndIndexes(const Engine& got, const Engine& want) {
  const StarSchema& schema = got.schema();
  for (const auto& view : got.views().all()) {
    const MaterializedView* other = want.views().Find(view->spec());
    SS_CHECK_MSG(other != nullptr, "%s missing", view->name().c_str());
    SS_CHECK(view->IndexedDims() == other->IndexedDims());
    for (const size_t d : view->spec().RetainedDims(schema)) {
      const Hierarchy& h = schema.dim(d);
      for (int level = view->StoredLevel(d); level < h.num_levels();
           ++level) {
        const BitmapJoinIndex* index = view->IndexOn(d, level);
        const BitmapJoinIndex* other_index = other->IndexOn(d, level);
        SS_CHECK((index == nullptr) == (other_index == nullptr));
        for (uint32_t m = 0; m < h.cardinality(level); ++m) {
          const int32_t member[] = {static_cast<int32_t>(m)};
          SS_CHECK_MSG(view->RowsMatching(h, d, level, member) ==
                           other->RowsMatching(h, d, level, member),
                       "%s: statistics differ on dimension %zu level %d",
                       view->name().c_str(), d, level);
          if (index == nullptr) continue;
          DiskModel disk;
          SS_CHECK_MSG(index->Lookup(member, disk) ==
                           other_index->Lookup(member, disk),
                       "%s: index lookups differ on dimension %zu level %d",
                       view->name().c_str(), d, level);
        }
      }
    }
  }
}

}  // namespace

int main() {
  const uint64_t rows = PaperWorkload::RowsFromEnv();
  const uint64_t delta_rows = rows / 20;

  BenchReport report("ablation_maintenance",
                     "Ablation: view maintenance and the result cache");
  report.Section(StrFormat(
      "Ablation 1: incremental refresh vs rebuild (+%s facts on %s)",
      WithCommas(delta_rows).c_str(), WithCommas(rows).c_str()));

  // Incremental: AppendFacts folds the delta into every view.
  Engine incremental(StarSchema::PaperTestSchema());
  PaperWorkload::Setup(incremental, rows);
  StampPageLayout(report, incremental);
  incremental.ConsumeIoStats();
  const Measurement incremental_m = Measure(incremental, [&] {
    SS_CHECK(
        incremental.AppendFacts({.num_rows = delta_rows, .seed = 9}).ok());
  });
  report.Row("paper views: incremental (views + delta)", incremental_m);
  const std::vector<QueryResult> incremental_answers =
      AnswerTests4To7(incremental);

  // Rebuild: drop all views and re-materialize from the grown base.
  {
    Engine engine(StarSchema::PaperTestSchema());
    PaperWorkload::Setup(engine, rows);
    engine.ConsumeIoStats();
    const Measurement m = Measure(engine, [&] {
      for (const std::string& spec : PaperWorkload::ViewSpecs()) {
        SS_CHECK(engine.DropView(spec).ok());
      }
      SS_CHECK(engine.AppendFacts({.num_rows = delta_rows, .seed = 9}).ok());
      SS_CHECK(engine.MaterializeViews(PaperWorkload::ViewSpecs()).ok());
      SS_CHECK(engine
                   .BuildIndexes(PaperWorkload::IndexedViewSpec(),
                                 PaperWorkload::IndexedDims())
                   .ok());
    });
    report.Row("paper views: rebuild from grown base", m);
    // Real-valued measures fold in another order on each path, hence
    // ApproxEquals.
    const std::vector<QueryResult> rebuilt_answers = AnswerTests4To7(engine);
    SS_CHECK(rebuilt_answers.size() == incremental_answers.size());
    for (size_t i = 0; i < rebuilt_answers.size(); ++i) {
      SS_CHECK_MSG(incremental_answers[i].ApproxEquals(rebuilt_answers[i]),
                   "Tests 4-7 answer %zu differs between refreshed and "
                   "rebuilt views",
                   i);
    }
    CheckSameStatsAndIndexes(incremental, engine);
  }
  report.Note(
      "Shape check (paper view set): the five Table 1 views total ~3x the\n"
      "base, so reading them all back for the refresh costs MORE than one\n"
      "shared scan of the grown base — batch rebuild wins. Incremental\n"
      "maintenance pays off when the views are small relative to the base,\n"
      "shown next.");

  report.Section(
      "Ablation 1b: same comparison with small (coarse) views only");

  // Views that aggregate D away are tiny (<= 729 cells): the regime where
  // self-maintenance shines.
  const std::vector<std::string> coarse = {"A'B'C'", "A''B''C''",
                                           "A'B''C''"};
  {
    Engine engine(StarSchema::PaperTestSchema());
    engine.LoadFactTable({.num_rows = rows});
    SS_CHECK(engine.MaterializeViews(coarse).ok());
    engine.ConsumeIoStats();
    const Measurement m = Measure(engine, [&] {
      SS_CHECK(engine.AppendFacts({.num_rows = delta_rows, .seed = 9}).ok());
    });
    report.Row("coarse views: incremental (views + delta)", m);
  }
  {
    Engine engine(StarSchema::PaperTestSchema());
    engine.LoadFactTable({.num_rows = rows});
    SS_CHECK(engine.MaterializeViews(coarse).ok());
    engine.ConsumeIoStats();
    const Measurement m = Measure(engine, [&] {
      for (const std::string& spec : coarse) {
        SS_CHECK(engine.DropView(spec).ok());
      }
      SS_CHECK(engine.AppendFacts({.num_rows = delta_rows, .seed = 9}).ok());
      SS_CHECK(engine.MaterializeViews(coarse).ok());
    });
    report.Row("coarse views: rebuild from grown base", m);
  }
  report.Note(
      "Shape check: with coarse views (a fraction of the base), the\n"
      "incremental refresh avoids the full base scan and wins.");

  report.Section("Ablation 2: result cache on a repeated dashboard (Test 4)");
  {
    EngineConfig config;
    config.result_cache_entries = 64;
    Engine engine(StarSchema::PaperTestSchema(), config);
    PaperWorkload::Setup(engine, rows);
    const auto queries = PaperWorkload::MakeQueries(engine, {1, 2, 3});

    engine.ConsumeIoStats();
    const Measurement cold = Measure(engine, [&] {
      engine.ExecuteCached(queries, OptimizerKind::kGlobalGreedy);
    });
    // The cold run's executed tree (CacheLookup rooting the GG plan).
    report.PlanShape(engine.last_physical_plan().ShapeHash());
    const Measurement warm = Measure(engine, [&] {
      engine.ExecuteCached(queries, OptimizerKind::kGlobalGreedy);
    });
    report.Row("first run (plans + executes)", cold);
    report.Row("second run (all cache hits)", warm);
    SS_CHECK(warm.io.TotalPagesRead() == 0);
    report.Note(StrFormat("cache: %llu hits, %llu misses",
                          static_cast<unsigned long long>(
                              engine.result_cache()->hits()),
                          static_cast<unsigned long long>(
                              engine.result_cache()->misses())));
  }
  report.Write();
  return 0;
}
