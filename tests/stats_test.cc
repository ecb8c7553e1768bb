// View statistics: exact per-member counts replace the uniform selectivity
// assumption, which matters on skewed (Zipf) data.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/paper_workload.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::MakeQuery;
using testing::SampleMembers;
using testing::SmallSchema;

StarSchema SkewedSchema() {
  std::vector<DimensionConfig> dims;
  dims.push_back({.name = "X",
                  .top_cardinality = 2,
                  .fanouts = {3, 2},
                  .zipf_theta = 1.1});
  dims.push_back({.name = "Y", .top_cardinality = 2, .fanouts = {3, 2}});
  return StarSchema(std::move(dims), "m");
}

TEST(StatsTest, ComputeStatsCountsExactly) {
  Engine engine(SmallSchema());
  auto* base = engine.LoadFactTable({.num_rows = 5000, .seed = 111});
  ASSERT_TRUE(base->has_stats());
  // Counts per X base member must sum to the row count and match a manual
  // scan.
  const Hierarchy& x = engine.schema().dim(0);
  std::vector<uint32_t> manual(x.cardinality(0), 0);
  for (uint64_t r = 0; r < base->table().num_rows(); ++r) {
    ++manual[static_cast<size_t>(base->table().key(0, r))];
  }
  uint64_t total = 0;
  for (int32_t m = 0; m < static_cast<int32_t>(manual.size()); ++m) {
    const int32_t members[] = {m};
    EXPECT_EQ(base->RowsMatching(x, 0, 0, members),
              manual[static_cast<size_t>(m)]);
    total += base->RowsMatching(x, 0, 0, members);
  }
  EXPECT_EQ(total, base->table().num_rows());
}

TEST(StatsTest, SelectivityOfSumsMembers) {
  Engine engine(SmallSchema());
  auto* base = engine.LoadFactTable({.num_rows = 5000, .seed = 111});
  const Hierarchy& x = engine.schema().dim(0);
  const int32_t all[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_DOUBLE_EQ(base->SelectivityOf(x, 0, 0, all), 1.0);
  const int32_t top[] = {0, 1};
  EXPECT_DOUBLE_EQ(base->SelectivityOf(x, 0, 2, top), 1.0);
  const int32_t none[] = {};
  EXPECT_DOUBLE_EQ(
      base->SelectivityOf(x, 0, 0, std::span<const int32_t>(none, 0)), 0.0);
}

TEST(StatsTest, MatchRowsExactOnSkewedData) {
  Engine engine(SkewedSchema());
  auto* base = engine.LoadFactTable({.num_rows = 30000, .seed = 113});
  const CostModel& cost = engine.cost_model();

  // The hottest X member under Zipf 1.1 holds far more than 1/12 of rows;
  // the stats-based estimate must match the actual count, not the uniform
  // guess.
  DimensionalQuery hot = MakeQuery(engine.schema(), 1, "X", {{"X", 0, {0}}});
  uint64_t actual = 0;
  for (uint64_t r = 0; r < base->table().num_rows(); ++r) {
    if (base->table().key(0, r) == 0) ++actual;
  }
  EXPECT_NEAR(cost.MatchRows(hot, *base), static_cast<double>(actual), 0.5);
  EXPECT_GT(static_cast<double>(actual), 30000.0 / 12 * 2);  // skew is real
}

TEST(StatsTest, EstimatesPropagateThroughHierarchy) {
  Engine engine(SkewedSchema());
  auto* base = engine.LoadFactTable({.num_rows = 30000, .seed = 113});
  const CostModel& cost = engine.cost_model();
  // Predicate at the top level: stats expand it to base members and sum
  // exact counts.
  DimensionalQuery top = MakeQuery(engine.schema(), 1, "X''",
                                   {{"X", 2, {0}}});
  uint64_t actual = 0;
  for (uint64_t r = 0; r < base->table().num_rows(); ++r) {
    if (engine.schema().dim(0).MapUp(0, 2, base->table().key(0, r)) == 0) {
      ++actual;
    }
  }
  EXPECT_NEAR(cost.MatchRows(top, *base), static_cast<double>(actual), 0.5);
}

TEST(StatsTest, MaterializedViewsGetStatsToo) {
  Engine engine(SkewedSchema());
  engine.LoadFactTable({.num_rows = 20000, .seed = 115});
  auto view = engine.MaterializeView("X'Y'");
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view.value()->has_stats());
  // On the view, selectivity is over view *cells*, not base tuples: with
  // only 4 X' members the per-member cell share is ~1/4 even under skew on
  // base tuples (cells exist regardless of how many tuples they absorb).
  const int32_t members[] = {0};
  const double sel =
      view.value()->SelectivityOf(engine.schema().dim(0), 0, 1, members);
  EXPECT_GT(sel, 0.1);
  EXPECT_LT(sel, 0.5);
}

TEST(StatsTest, RowsMatchingAtAnyLevelEqualsExpandedMembers) {
  // Every Table 1 view x retained dimension x level from the stored one up
  // to ALL: the range sums must give the old computation's integers, which
  // expanded the members to the stored level, de-duplicated and summed
  // per-member counts.
  Engine engine(StarSchema::PaperTestSchema());
  PaperWorkload::Setup(engine, /*rows=*/20'000);
  const StarSchema& schema = engine.schema();
  Rng rng(1998);
  size_t checked = 0;
  for (const auto& view : engine.views().all()) {
    const Table& table = view->table();
    for (size_t d = 0; d < schema.num_dims(); ++d) {
      const size_t col = view->KeyColForDim(d);
      if (col == SIZE_MAX) continue;
      const Hierarchy& h = schema.dim(d);
      const int stored = view->StoredLevel(d);
      std::vector<uint64_t> counts(h.cardinality(stored), 0);
      for (uint64_t r = 0; r < table.num_rows(); ++r) {
        ++counts[static_cast<size_t>(table.key(col, r))];
      }
      for (int level = stored; level <= h.all_level(); ++level) {
        const uint32_t card = h.cardinality(level);
        for (int trial = 0; trial < 6; ++trial) {
          const size_t count = 1 + rng.NextBounded(card);
          const DimPredicate pred{d, level, SampleMembers(rng, card, count)};
          uint64_t want = 0;
          for (const int32_t m : pred.MembersAtLevel(h, stored)) {
            want += counts[static_cast<size_t>(m)];
          }
          EXPECT_EQ(view->RowsMatching(h, d, level, pred.members), want)
              << view->name() << " " << h.PrimedLevelName(level) << " x"
              << pred.members.size();
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(StatsTest, UniformFallbackWithoutStats) {
  // A hand-constructed view without ComputeStats falls back to the uniform
  // assumption.
  StarSchema schema = SmallSchema();
  DataGenerator gen(schema, {.num_rows = 1000, .seed = 117});
  auto table = gen.Generate("base");
  MaterializedView view(schema, GroupBySpec::Base(schema), table.get());
  EXPECT_FALSE(view.has_stats());
  CostModel cost(schema, DiskTimings{}, CpuCosts{});
  DimensionalQuery q = MakeQuery(schema, 1, "X''", {{"X", 2, {0}}});
  EXPECT_DOUBLE_EQ(cost.MatchRows(q, view), 500.0);  // uniform 1/2
}

}  // namespace
}  // namespace starshare
