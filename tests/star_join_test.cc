#include <gtest/gtest.h>

#include "cube/view_builder.h"
#include "exec/executor.h"
#include "exec/operators/bitmap_filter.h"
#include "exec/operators/star_join_filter.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BruteForce;
using testing::MakeQuery;
using testing::SmallSchema;

class StarJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGenerator gen(schema_, {.num_rows = 8000, .seed = 23});
    base_table_ = gen.Generate("base");
    base_ = std::make_unique<MaterializedView>(
        schema_, GroupBySpec::Base(schema_), base_table_.get());
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      base_->BuildIndex(schema_, d, disk_);
    }
    ViewBuilder builder(schema_);
    mid_spec_ = GroupBySpec::Parse("X'Y'Z", schema_).value();
    mid_table_ = std::move(builder.Build(*base_, {mid_spec_}, disk_).value().front());
    mid_ = std::make_unique<MaterializedView>(schema_, mid_spec_,
                                              mid_table_.get());
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      mid_->BuildIndex(schema_, d, disk_);
    }
    disk_.ResetStats();
  }

  // The single-query star joins (§3 Figs. 1 and 3) on disk_.
  QueryResult Run(const DimensionalQuery& q, const MaterializedView& view,
                  JoinMethod method) {
    Result<QueryResult> result =
        Executor(schema_, disk_).ExecuteSingle(q, view, method);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  }
  QueryResult HashJoin(const DimensionalQuery& q,
                       const MaterializedView& view) {
    return Run(q, view, JoinMethod::kHashScan);
  }
  QueryResult IndexJoin(const DimensionalQuery& q,
                        const MaterializedView& view) {
    return Run(q, view, JoinMethod::kIndexProbe);
  }

  StarSchema schema_ = SmallSchema();
  DiskModel disk_;
  std::unique_ptr<Table> base_table_;
  std::unique_ptr<MaterializedView> base_;
  GroupBySpec mid_spec_;
  std::unique_ptr<Table> mid_table_;
  std::unique_ptr<MaterializedView> mid_;
};

TEST_F(StarJoinTest, PassTableMarksDescendants) {
  // Predicate X'' = X1 on the base view: base members 0..5 pass.
  DimPredicate pred{0, 2, {0}};
  const auto pass = BuildPassTable(schema_, *base_, pred);
  ASSERT_EQ(pass.size(), 12u);
  for (size_t m = 0; m < 12; ++m) {
    EXPECT_EQ(pass[m], m < 6 ? 1 : 0) << m;
  }
}

TEST_F(StarJoinTest, PassTableAtStoredLevel) {
  // On the mid view X is stored at level 1 (4 members); X''=X2 covers 2..3.
  DimPredicate pred{0, 2, {1}};
  const auto pass = BuildPassTable(schema_, *mid_, pred);
  ASSERT_EQ(pass.size(), 4u);
  for (size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(pass[m], m >= 2 ? 1 : 0) << m;
  }
}

TEST_F(StarJoinTest, HashJoinMatchesBruteForce) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X'Y''",
                                 {{"X", 2, {0}}, {"Z", 1, {0, 2}}});
  QueryResult got = HashJoin(q, *base_);
  EXPECT_TRUE(got.ApproxEquals(BruteForce(schema_, *base_table_, q)));
}

TEST_F(StarJoinTest, HashJoinFromViewMatchesBase) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X'Y''",
                                 {{"X", 2, {0}}, {"Z", 1, {0, 2}}});
  QueryResult from_base = HashJoin(q, *base_);
  QueryResult from_mid = HashJoin(q, *mid_);
  EXPECT_TRUE(from_mid.ApproxEquals(from_base));
}

TEST_F(StarJoinTest, HashJoinNoPredicates) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X''Y''", {});
  QueryResult got = HashJoin(q, *base_);
  EXPECT_TRUE(got.ApproxEquals(BruteForce(schema_, *base_table_, q)));
  EXPECT_EQ(got.num_rows(), 4u);
}

TEST_F(StarJoinTest, HashJoinChargesOneScan) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  disk_.ResetStats();
  HashJoin(q, *base_);
  EXPECT_EQ(disk_.stats().seq_pages_read, base_table_->num_pages());
  EXPECT_EQ(disk_.stats().rand_pages_read, 0u);
  EXPECT_EQ(disk_.stats().tuples_processed, base_table_->num_rows());
}

TEST_F(StarJoinTest, ResultBitmapIsSelectionExactly) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X'Y''",
                                 {{"X", 2, {0}}, {"Y", 2, {1}}});
  Bitmap bitmap = BuildResultBitmap(schema_, q, *base_, disk_);
  ASSERT_EQ(bitmap.num_bits(), base_table_->num_rows());
  std::vector<int32_t> keys(schema_.num_dims());
  for (uint64_t row = 0; row < base_table_->num_rows(); ++row) {
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      keys[d] = base_table_->key(d, row);
    }
    ASSERT_EQ(bitmap.Test(row),
              q.predicate().MatchesBaseRow(schema_, keys.data()))
        << row;
  }
}

TEST_F(StarJoinTest, IndexJoinMatchesBruteForce) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X'Y''",
                                 {{"X", 1, {2}}, {"Y", 2, {1}}});
  QueryResult got = IndexJoin(q, *base_);
  EXPECT_TRUE(got.ApproxEquals(BruteForce(schema_, *base_table_, q)));
}

TEST_F(StarJoinTest, IndexJoinFromViewMatchesHashJoin) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X'Y''",
                                 {{"X", 1, {2}}, {"Y", 2, {1}}});
  QueryResult via_index = IndexJoin(q, *mid_);
  QueryResult via_hash = HashJoin(q, *mid_);
  EXPECT_TRUE(via_index.ApproxEquals(via_hash));
}

TEST_F(StarJoinTest, IndexJoinChargesRandomNotSequential) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X", {{"X", 0, {7}}});
  disk_.ResetStats();
  IndexJoin(q, *base_);
  EXPECT_EQ(disk_.stats().seq_pages_read, 0u);
  EXPECT_GT(disk_.stats().rand_pages_read, 0u);
  EXPECT_GT(disk_.stats().index_pages_read, 0u);
  // A 1/12 selection cannot touch more pages than the table has.
  EXPECT_LE(disk_.stats().rand_pages_read, base_table_->num_pages());
}

TEST_F(StarJoinTest, VerySelectiveIndexJoinTouchesFewPages) {
  // One base member of X, Y and Z: ~8000/1728 = 5 rows.
  DimensionalQuery q = MakeQuery(schema_, 1, "XYZ",
                                 {{"X", 0, {3}}, {"Y", 0, {4}}, {"Z", 0, {7}}});
  disk_.ResetStats();
  QueryResult got = IndexJoin(q, *base_);
  EXPECT_TRUE(got.ApproxEquals(BruteForce(schema_, *base_table_, q)));
  EXPECT_LT(disk_.stats().rand_pages_read, base_table_->num_pages());
}

TEST_F(StarJoinTest, EmptySelectionYieldsEmptyResult) {
  // Intersection of disjoint X predicates is empty.
  StarSchema& s = schema_;
  QueryPredicate pred;
  pred.AddConjunct(s.dim(0), DimPredicate{0, 2, {0}});
  pred.AddConjunct(s.dim(0), DimPredicate{0, 2, {1}});
  DimensionalQuery q(1, "empty", GroupBySpec::Parse("X''", s).value(),
                     std::move(pred));
  EXPECT_EQ(HashJoin(q, *base_).num_rows(), 0u);
  EXPECT_EQ(IndexJoin(q, *base_).num_rows(), 0u);
}

// Aggregate sweep: both join methods agree with brute force for every agg.
class StarJoinAggTest : public StarJoinTest,
                        public ::testing::WithParamInterface<AggOp> {};

TEST_P(StarJoinAggTest, HashJoinAllAggs) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X''Z'", {{"Z", 1, {0, 1}}},
                                 GetParam());
  QueryResult got = HashJoin(q, *base_);
  EXPECT_TRUE(got.ApproxEquals(BruteForce(schema_, *base_table_, q)));
}

INSTANTIATE_TEST_SUITE_P(Aggs, StarJoinAggTest,
                         ::testing::Values(AggOp::kSum, AggOp::kCount,
                                           AggOp::kMin, AggOp::kMax,
                                           AggOp::kAvg));

}  // namespace
}  // namespace starshare
