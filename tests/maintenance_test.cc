// Incremental view maintenance: AppendFacts folds new base tuples into
// every materialized view from (old view + delta) — SUM views are
// self-maintainable — and the refreshed cube must be indistinguishable from
// one rebuilt from scratch.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "tests/view_identity.h"

namespace starshare {
namespace {

using testing::BruteForce;
using testing::ExpectSameStatsAndIndexes;
using testing::MakeQuery;
using testing::SmallSchema;

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(SmallSchema());
    engine_->LoadFactTable({.num_rows = 12000, .seed = 131});
    ASSERT_TRUE(engine_->MaterializeView("X'Y'").ok());
    ASSERT_TRUE(engine_->MaterializeView("X''Z'", /*clustered=*/true).ok());
    ASSERT_TRUE(engine_->BuildIndexes("X'Y'", {"X", "Y"}).ok());
  }

  const StarSchema& schema() const { return engine_->schema(); }

  std::unique_ptr<Engine> engine_;
};

// Appends `delta_rows` facts to an engine holding `base_rows` facts, the
// views X'Y' and XY'Z (indexed) and X''Z' (clustered) and an indexed base,
// then checks each against an engine that builds it from the grown base:
// the same keys in the same order, and the same statistics and index
// lookups member by member. Row order depends only on keys, so those
// match exactly; real-valued sums fold in another order.
void ExpectAppendMatchesRebuild(uint64_t base_rows, uint64_t delta_rows) {
  SCOPED_TRACE(std::to_string(base_rows) + " + " + std::to_string(delta_rows));
  const DataGeneratorConfig base{.num_rows = base_rows, .seed = 131};
  const DataGeneratorConfig delta{.num_rows = delta_rows, .seed = 999};
  const auto materialize = [](Engine& engine) {
    ASSERT_TRUE(engine.MaterializeView("X'Y'").ok());
    ASSERT_TRUE(engine.MaterializeView("X''Z'", /*clustered=*/true).ok());
    ASSERT_TRUE(engine.MaterializeView("XY'Z").ok());
    ASSERT_TRUE(engine.BuildIndexes("X'Y'", {"X", "Y"}).ok());
    ASSERT_TRUE(engine.BuildIndexes("XY'Z", {"X", "Z"}).ok());
    // An indexed base too: its new rows all land after the old ones.
    ASSERT_TRUE(engine.BuildIndexes("XYZ", {"X", "Z"}).ok());
  };
  Engine engine(SmallSchema());
  engine.LoadFactTable(base);
  materialize(engine);
  ASSERT_TRUE(engine.AppendFacts(delta).ok());
  EXPECT_EQ(engine.base_view()->table().num_rows(), base_rows + delta_rows);

  // A second engine builds the same final state from scratch, its base
  // statistics included.
  Engine fresh(SmallSchema());
  fresh.LoadFactTable(base);
  ASSERT_TRUE(fresh.AppendFacts(delta).ok());
  fresh.base_view()->ComputeStats(fresh.schema());
  materialize(fresh);

  const StarSchema& schema = engine.schema();
  for (const char* name : {"X'Y'", "X''Z'", "XY'Z", "XYZ"}) {
    const MaterializedView* spliced = engine.views().FindByName(name);
    const MaterializedView* rebuilt = fresh.views().FindByName(name);
    ASSERT_NE(spliced, nullptr);
    ASSERT_NE(rebuilt, nullptr);
    ExpectSameStatsAndIndexes(schema, *spliced, *rebuilt, name);
    for (const size_t d : spliced->IndexedDims()) {
      const Hierarchy& h = schema.dim(d);
      for (int level = spliced->StoredLevel(d); level < h.num_levels();
           ++level) {
        for (uint32_t m = 0; m < h.cardinality(level); ++m) {
          const int32_t member[] = {static_cast<int32_t>(m)};
          DiskModel disk;
          EXPECT_EQ(spliced->IndexOn(d, level)->Lookup(member, disk),
                    rebuilt->IndexOn(d, level)->Lookup(member, disk))
              << name << " dim " << d << " level " << level;
        }
      }
    }

    const Table& refreshed = spliced->table();
    const Table& built = rebuilt->table();
    ASSERT_EQ(refreshed.num_rows(), built.num_rows()) << name;
    for (uint64_t r = 0; r < refreshed.num_rows(); ++r) {
      for (size_t c = 0; c < refreshed.num_key_columns(); ++c) {
        ASSERT_EQ(refreshed.key(c, r), built.key(c, r)) << name;
      }
      ASSERT_NEAR(refreshed.measure(r), built.measure(r), 1e-6) << name;
    }
  }
}

TEST_F(MaintenanceTest, RefreshedViewsMatchRebuiltFromScratch) {
  // Dense: every cell of X'Y' and XY'Z exists before the append. Sparse:
  // the append adds cells to XY'Z, so spliced RIDs move.
  ExpectAppendMatchesRebuild(12000, 2500);
  ExpectAppendMatchesRebuild(300, 200);
}

TEST_F(MaintenanceTest, QueriesCorrectAfterAppend) {
  ASSERT_TRUE(engine_->AppendFacts({.num_rows = 3000, .seed = 777}).ok());
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X'Y''", {{"X", 2, {0}}}));
  queries.push_back(
      MakeQuery(schema(), 2, "X'Y'", {{"X", 1, {1}}, {"Y", 1, {2}}}));
  queries.push_back(MakeQuery(schema(), 3, "X''Z'", {{"Z", 1, {1}}}));

  const GlobalPlan plan =
      engine_->Optimize(queries, OptimizerKind::kGlobalGreedy);
  const auto shared = engine_->Execute(plan);
  const auto naive = engine_->ExecuteNaive(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult expected =
        BruteForce(schema(), engine_->base_view()->table(), queries[i]);
    EXPECT_TRUE(shared[i].result.ApproxEquals(expected)) << "Q" << i + 1;
    EXPECT_TRUE(naive[i].result.ApproxEquals(expected)) << "Q" << i + 1;
  }
}

TEST_F(MaintenanceTest, IndexesRebuiltAfterAppend) {
  ASSERT_TRUE(engine_->AppendFacts({.num_rows = 1000, .seed = 55}).ok());
  MaterializedView* view = engine_->views().FindByName("X'Y'");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->IndexedDims(), (std::vector<size_t>{0, 1}));
  // The rebuilt index covers the refreshed row count.
  EXPECT_EQ(view->IndexOn(0)->num_rows(), view->table().num_rows());
  EXPECT_TRUE(view->has_stats());
}

TEST_F(MaintenanceTest, RefreshNeverRescansBase) {
  engine_->ConsumeIoStats();
  const uint64_t base_pages = engine_->base_view()->table().num_pages();
  ASSERT_TRUE(engine_->AppendFacts({.num_rows = 500, .seed = 3}).ok());
  const IoStats io = engine_->ConsumeIoStats();
  // Sequential reads cover views, delta and index rebuilds — but the
  // refresh itself must not scan anything the size of the base. X'Y' gets
  // its index rebuilt (one scan of the small refreshed view), so allow
  // view-sized reads only.
  EXPECT_LT(io.seq_pages_read, base_pages);
}

TEST_F(MaintenanceTest, AppendValidation) {
  // Wrong column count.
  auto bad = std::make_unique<Table>("d", std::vector<std::string>{"X"}, "m");
  EXPECT_EQ(engine_->AppendFactTable(std::move(bad)).code(),
            StatusCode::kInvalidArgument);
  // Out-of-range key.
  auto oob = std::make_unique<Table>(
      "d", std::vector<std::string>{"X", "Y", "Z"}, "m");
  const int32_t keys[] = {99, 0, 0};
  oob->AppendRow(keys, 1.0);
  EXPECT_EQ(engine_->AppendFactTable(std::move(oob)).code(),
            StatusCode::kInvalidArgument);
  // Permuted key columns: X and Y have the same domain, so only the names
  // tell that this delta's first column holds Y.
  auto permuted = std::make_unique<Table>(
      "d", std::vector<std::string>{"Y", "X", "Z"}, "m");
  const int32_t in_domain[] = {1, 2, 3};
  permuted->AppendRow(in_domain, 1.0);
  const uint64_t rows = engine_->base_view()->table().num_rows();
  EXPECT_EQ(engine_->AppendFactTable(std::move(permuted)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_->base_view()->table().num_rows(), rows);
  // No fact table yet.
  Engine empty(SmallSchema());
  EXPECT_EQ(empty.AppendFacts({.num_rows = 10}).code(),
            StatusCode::kFailedPrecondition);
}

// Base facts with X in [x_lo, 12), so views pack X-derived columns above
// ref 0 and a delta with a smaller X lowers their frame.
std::unique_ptr<Table> FactsFromX(const StarSchema& schema, uint64_t rows,
                                  uint64_t seed, int32_t x_lo) {
  auto table = std::make_unique<Table>(
      "facts", GroupBySpec::Base(schema).KeyColumnNames(schema),
      schema.measure_names());
  Rng rng(seed);
  for (uint64_t r = 0; r < rows; ++r) {
    const int32_t keys[] = {
        x_lo + static_cast<int32_t>(rng.NextBounded(
                   static_cast<uint64_t>(12 - x_lo))),
        static_cast<int32_t>(rng.NextBounded(12)),
        static_cast<int32_t>(rng.NextBounded(12))};
    table->AppendRow(keys, static_cast<double>(rng.NextBounded(100)));
  }
  return table;
}

uint64_t CounterOf(const obs::TraceSpan& span, const std::string& key) {
  for (const auto& [name, value] : span.counters) {
    if (name == key) return value;
  }
  ADD_FAILURE() << span.name << " has no counter " << key;
  return 0;
}

TEST(MaintenanceTraceTest, AppendTraceShowsNewCellsRepacksAndSplices) {
  for (const bool compressed : {false, true}) {
    SCOPED_TRACE(compressed ? "compressed" : "uncompressed");
    EngineConfig config;
    config.trace = true;
    config.compressed_pages = compressed;
    Engine engine(SmallSchema(), config);
    ASSERT_TRUE(
        engine.AttachFactTable(FactsFromX(engine.schema(), 2000, 5, 6)).ok());
    ASSERT_TRUE(engine.MaterializeView("X'Y'").ok());
    ASSERT_TRUE(engine.BuildIndexes("X'Y'", {"X"}).ok());
    const uint64_t old_rows = engine.catalog().Find("X'Y'")->num_rows();

    // X' in {2, 3} before; the delta's X' in {0, 1} are all new cells and
    // move the packed X' column's ref down.
    ASSERT_TRUE(
        engine.AppendFactTable(FactsFromX(engine.schema(), 50, 6, 0)).ok());
    const uint64_t new_rows = engine.catalog().Find("X'Y'")->num_rows();
    const obs::Trace& trace = engine.last_trace();
    const obs::TraceSpan* refresh = trace.Find("view.refresh");
    ASSERT_NE(refresh, nullptr);
    EXPECT_EQ(CounterOf(*refresh, "new_cells"), new_rows - old_rows);
    EXPECT_EQ(CounterOf(*refresh, "repacked_columns"), compressed ? 1u : 0u);

    // One splice for the base and one for the view, each beside the
    // refresh rather than inside it.
    const std::vector<const obs::TraceSpan*> splices =
        trace.FindAll("view.splice");
    ASSERT_EQ(splices.size(), 2u);
    EXPECT_EQ(splices[0]->rows, 50u);
    EXPECT_EQ(splices[1]->rows, new_rows - old_rows);
    for (const obs::TraceSpan* splice : splices) {
      EXPECT_EQ(splice->parent, 0);
    }
    EXPECT_GT(splices[1]->io.seq_pages_read, 0u);  // the index rebuild's scan
  }
}

TEST_F(MaintenanceTest, RepeatedAppendsAccumulate) {
  double expected_total = 0;
  for (uint64_t r = 0; r < engine_->base_view()->table().num_rows(); ++r) {
    expected_total += engine_->base_view()->table().measure(r);
  }
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        engine_->AppendFacts({.num_rows = 400, .seed = 1000u + round}).ok());
  }
  EXPECT_EQ(engine_->base_view()->table().num_rows(), 12000u + 3 * 400);
  // The grand total over the refreshed X''Z' view equals the base total.
  std::vector<DimensionalQuery> q;
  q.push_back(MakeQuery(schema(), 1, "()", {}));
  const auto results = engine_->ExecuteNaive(q);
  double base_total = 0;
  for (uint64_t r = 0; r < engine_->base_view()->table().num_rows(); ++r) {
    base_total += engine_->base_view()->table().measure(r);
  }
  EXPECT_NEAR(results[0].result.TotalValue(), base_total,
              1e-9 * base_total);
}

}  // namespace
}  // namespace starshare
