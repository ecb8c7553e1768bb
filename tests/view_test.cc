#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "cube/materialized_view.h"
#include "cube/view_builder.h"
#include "cube/view_selection.h"
#include "cube/view_set.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BruteForce;
using testing::MakeQuery;
using testing::SmallSchema;

// Builds the one view table of `spec` from `source`.
std::unique_ptr<Table> BuildOne(const ViewBuilder& builder,
                                const MaterializedView& source,
                                const GroupBySpec& spec, DiskModel& disk,
                                bool clustered = false) {
  return std::move(builder.Build(source, {spec}, disk, clustered).value().front());
}

struct Fixture {
  StarSchema schema = SmallSchema();
  DiskModel disk;
  std::unique_ptr<Table> base_table;
  std::unique_ptr<MaterializedView> base;

  explicit Fixture(uint64_t rows = 5000) {
    DataGenerator gen(schema, {.num_rows = rows, .seed = 17});
    base_table = gen.Generate("base");
    base = std::make_unique<MaterializedView>(
        schema, GroupBySpec::Base(schema), base_table.get());
  }
};

TEST(MaterializedViewTest, KeyColMapping) {
  Fixture f;
  EXPECT_EQ(f.base->KeyColForDim(0), 0u);
  EXPECT_EQ(f.base->KeyColForDim(2), 2u);
  EXPECT_EQ(f.base->StoredLevel(1), 0);

  ViewBuilder builder(f.schema);
  auto spec = GroupBySpec::Parse("X'Z", f.schema).value();
  auto table = BuildOne(builder, *f.base, spec, f.disk);
  MaterializedView view(f.schema, spec, table.get());
  EXPECT_EQ(view.KeyColForDim(0), 0u);
  EXPECT_EQ(view.KeyColForDim(1), SIZE_MAX);  // Y aggregated away
  EXPECT_EQ(view.KeyColForDim(2), 1u);
  EXPECT_EQ(view.StoredLevel(0), 1);
}

TEST(ViewBuilderTest, AggregatesMatchBruteForce) {
  Fixture f;
  ViewBuilder builder(f.schema);
  for (const char* spec_text : {"X'Y'Z", "X''", "XZ'", "X''Y''Z'"}) {
    auto spec = GroupBySpec::Parse(spec_text, f.schema).value();
    auto table = BuildOne(builder, *f.base, spec, f.disk, /*clustered=*/true);
    // The clustered view's rows must equal the brute-force group-by of the
    // base data, in key order.
    DimensionalQuery q(1, spec_text, spec, QueryPredicate{});
    QueryResult expected = BruteForce(f.schema, *f.base_table, q);
    ASSERT_EQ(table->num_rows(), expected.num_rows()) << spec_text;
    for (size_t r = 0; r < expected.num_rows(); ++r) {
      const auto& row = expected.rows()[r];
      for (size_t c = 0; c < row.keys.size(); ++c) {
        ASSERT_EQ(table->key(c, r), row.keys[c]) << spec_text;
      }
      ASSERT_NEAR(table->measure(r), row.value, 1e-6) << spec_text;
    }
  }
}

TEST(ViewBuilderTest, FromIntermediateViewMatchesFromBase) {
  Fixture f;
  ViewBuilder builder(f.schema);
  auto mid_spec = GroupBySpec::Parse("X'Y'Z", f.schema).value();
  auto mid_table = BuildOne(builder, *f.base, mid_spec, f.disk);
  MaterializedView mid(f.schema, mid_spec, mid_table.get());

  auto top_spec = GroupBySpec::Parse("X''Y''", f.schema).value();
  auto from_mid = BuildOne(builder, mid, top_spec, f.disk);
  auto from_base = BuildOne(builder, *f.base, top_spec, f.disk);

  ASSERT_EQ(from_mid->num_rows(), from_base->num_rows());
  for (uint64_t r = 0; r < from_mid->num_rows(); ++r) {
    for (size_t c = 0; c < from_mid->num_key_columns(); ++c) {
      ASSERT_EQ(from_mid->key(c, r), from_base->key(c, r));
    }
    ASSERT_NEAR(from_mid->measure(r), from_base->measure(r), 1e-6);
  }
}

TEST(ViewBuilderTest, ClusteredOutputSortedAndCharged) {
  Fixture f;
  ViewBuilder builder(f.schema);
  f.disk.ResetStats();
  auto spec = GroupBySpec::Parse("X'Y'", f.schema).value();
  auto table = BuildOne(builder, *f.base, spec, f.disk, /*clustered=*/true);
  EXPECT_EQ(f.disk.stats().seq_pages_read, f.base_table->num_pages());
  EXPECT_EQ(f.disk.stats().pages_written, table->num_pages());
  for (uint64_t r = 1; r < table->num_rows(); ++r) {
    const auto prev = std::make_pair(table->key(0, r - 1), table->key(1, r - 1));
    const auto cur = std::make_pair(table->key(0, r), table->key(1, r));
    EXPECT_LT(prev, cur);
  }
}

TEST(ViewBuilderTest, DefaultOrderIsDeterministicPermutationOfClustered) {
  Fixture f;
  ViewBuilder builder(f.schema);
  auto spec = GroupBySpec::Parse("X'Y'", f.schema).value();
  auto heap1 = BuildOne(builder, *f.base, spec, f.disk);
  auto heap2 = BuildOne(builder, *f.base, spec, f.disk);
  auto sorted = BuildOne(builder, *f.base, spec, f.disk, /*clustered=*/true);
  ASSERT_EQ(heap1->num_rows(), sorted->num_rows());
  // Deterministic across builds...
  bool any_disorder = false;
  for (uint64_t r = 0; r < heap1->num_rows(); ++r) {
    ASSERT_EQ(heap1->key(0, r), heap2->key(0, r));
    ASSERT_EQ(heap1->key(1, r), heap2->key(1, r));
    if (r > 0 && std::make_pair(heap1->key(0, r - 1), heap1->key(1, r - 1)) >
                     std::make_pair(heap1->key(0, r), heap1->key(1, r))) {
      any_disorder = true;
    }
  }
  // ...but not key-sorted (it is a heap-order permutation).
  EXPECT_TRUE(any_disorder);
  // Same multiset of cells as the clustered build.
  std::multiset<std::tuple<int32_t, int32_t, double>> a, b;
  for (uint64_t r = 0; r < heap1->num_rows(); ++r) {
    a.insert({heap1->key(0, r), heap1->key(1, r), heap1->measure(r)});
    b.insert({sorted->key(0, r), sorted->key(1, r), sorted->measure(r)});
  }
  EXPECT_EQ(a, b);
}

TEST(ViewBuilderTest, DefaultNameIsSpecString) {
  Fixture f;
  ViewBuilder builder(f.schema);
  auto spec = GroupBySpec::Parse("X''Z'", f.schema).value();
  auto table = BuildOne(builder, *f.base, spec, f.disk);
  EXPECT_EQ(table->name(), "X''Z'");
}

TEST(MaterializedViewTest, BuildIndexAndLookup) {
  Fixture f;
  f.base->BuildIndex(f.schema, 0, f.disk);
  EXPECT_TRUE(f.base->HasIndexOn(0));
  EXPECT_FALSE(f.base->HasIndexOn(1));
  EXPECT_EQ(f.base->IndexedDims(), (std::vector<size_t>{0}));
  const BitmapJoinIndex* index = f.base->IndexOn(0);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_values(), f.schema.dim(0).cardinality(0));
  // Rebuild is a no-op.
  f.base->BuildIndex(f.schema, 0, f.disk);
  EXPECT_EQ(f.base->IndexOn(0), index);
}

// ---------------------------------------------------------------- ViewSet

TEST(ViewSetTest, FindAndCandidates) {
  Fixture f;
  ViewBuilder builder(f.schema);
  ViewSet views;
  views.Add(std::make_unique<MaterializedView>(
      f.schema, GroupBySpec::Base(f.schema), f.base_table.get()));

  auto mid_spec = GroupBySpec::Parse("X'Y'Z", f.schema).value();
  auto mid_table = BuildOne(builder, *f.base, mid_spec, f.disk);
  Table* mid_raw = mid_table.get();
  views.Add(std::make_unique<MaterializedView>(f.schema, mid_spec, mid_raw));

  EXPECT_NE(views.Find(mid_spec), nullptr);
  EXPECT_EQ(views.Find(GroupBySpec::Parse("X''", f.schema).value()), nullptr);
  EXPECT_NE(views.FindByName("X'Y'Z"), nullptr);

  // Candidates for X''Y'' include both, smallest first.
  auto cands =
      views.CandidatesFor(GroupBySpec::Parse("X''Y''", f.schema).value());
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_LE(cands[0]->table().num_rows(), cands[1]->table().num_rows());

  // Candidates for the base itself: only the base.
  EXPECT_EQ(views.CandidatesFor(GroupBySpec::Base(f.schema)).size(), 1u);
  // Keep mid_table alive for the assertions above.
  (void)mid_table;
}

// --------------------------------------------------------- view selection

TEST(ViewSelectionTest, EstimateCapsAtBaseRows) {
  StarSchema s = SmallSchema();
  auto big = GroupBySpec::Base(s);
  EXPECT_EQ(EstimateViewRows(s, big, 100), 100u);
  auto tiny = GroupBySpec::Parse("X''", s).value();
  EXPECT_EQ(EstimateViewRows(s, tiny, 100000), 2u);
}

TEST(ViewSelectionTest, LatticeEnumerationComplete) {
  StarSchema s = SmallSchema();
  // (3+1) * (3+1) * (2+1) = 48 points, minus the base.
  EXPECT_EQ(EnumerateLattice(s).size(), 47u);
}

TEST(ViewSelectionTest, GreedyPicksHighBenefitViewsFirst) {
  StarSchema s = SmallSchema();
  const auto picks = GreedySelectViews(s, 1'000'000, 3);
  ASSERT_EQ(picks.size(), 3u);
  // No duplicates; none is the base.
  for (size_t i = 0; i < picks.size(); ++i) {
    EXPECT_NE(picks[i], GroupBySpec::Base(s));
    for (size_t j = i + 1; j < picks.size(); ++j) {
      EXPECT_NE(picks[i], picks[j]);
    }
  }
  // The first pick must answer many points cheaply: its estimated size must
  // be well below the base.
  EXPECT_LT(EstimateViewRows(s, picks[0], 1'000'000), 1'000'000u);
}

TEST(ViewSelectionTest, KLargerThanLatticeStops) {
  StarSchema s = SmallSchema();
  const auto picks = GreedySelectViews(s, 1000, 1000);
  EXPECT_LE(picks.size(), 47u);
}

}  // namespace
}  // namespace starshare
