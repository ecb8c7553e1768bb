// Residual-predicate index joins: when a view indexes only some of a
// query's restricted dimensions, the index star join probes the candidates
// selected by the indexed predicates and filters the rest per retrieved
// tuple. These tests pin the executor semantics, the cost-model accounting,
// and the optimizer's use of partial indexes — plus the oversized-class
// chunking in the executor.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/executor.h"
#include "exec/operators/bitmap_filter.h"
#include "exec/operators/class_pipeline.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BruteForce;
using testing::MakeQuery;
using testing::SmallSchema;

class ResidualTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(SmallSchema());
    base_ = engine_->LoadFactTable({.num_rows = 15000, .seed = 91});
    // Index X and Y only; predicates on Z must run as residual filters.
    ASSERT_TRUE(engine_->BuildIndexes("XYZ", {"X", "Y"}).ok());
    // A query restricted on all three dimensions.
    query_ = MakeQuery(engine_->schema(), 1, "X'Z'",
                       {{"X", 1, {1}}, {"Y", 2, {0}}, {"Z", 1, {2}}});
  }

  const StarSchema& schema() const { return engine_->schema(); }
  const CostModel& cost() const { return engine_->cost_model(); }

  // The single-query index star join (§3 Fig. 3) over the base table.
  QueryResult IndexJoin(const DimensionalQuery& q) {
    Result<QueryResult> result =
        Executor(schema(), engine_->disk())
            .ExecuteSingle(q, *base_, JoinMethod::kIndexProbe);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  }

  // One shared class over the base table; every member must succeed.
  std::vector<QueryResult> RunClass(
      const std::vector<const DimensionalQuery*>& hash,
      const std::vector<const DimensionalQuery*>& index, bool probe) {
    SharedClassRequest req;
    req.schema = &schema();
    req.hash_queries = hash;
    req.index_queries = index;
    req.view = base_;
    req.disk = &engine_->disk();
    req.probe = probe;
    Result<SharedOutcome> outcome = ExecuteSharedClass(req);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return {};
    for (const Status& status : outcome->statuses) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return std::move(outcome->results);
  }

  std::unique_ptr<Engine> engine_;
  MaterializedView* base_ = nullptr;
  DimensionalQuery query_;
};

TEST_F(ResidualTest, IndexJoinWithResidualMatchesBruteForce) {
  QueryResult got = IndexJoin(query_);
  EXPECT_TRUE(got.ApproxEquals(BruteForce(schema(), base_->table(), query_)));
}

TEST_F(ResidualTest, ResidualFilterOnlyNarrowsResults) {
  // Without the Z predicate, more rows qualify; with it (as residual), the
  // result must equal the fully-filtered brute force, not the candidate set.
  DimensionalQuery no_z = MakeQuery(schema(), 2, "X'Z'",
                                    {{"X", 1, {1}}, {"Y", 2, {0}}});
  QueryResult with_z = IndexJoin(query_);
  QueryResult without_z = IndexJoin(no_z);
  EXPECT_LT(with_z.TotalValue(), without_z.TotalValue());
}

TEST_F(ResidualTest, BuildResultBitmapReportsResiduals) {
  std::vector<const DimPredicate*> residual;
  Bitmap candidates = BuildResultBitmap(schema(), query_, *base_,
                                        engine_->disk(), &residual);
  ASSERT_EQ(residual.size(), 1u);
  EXPECT_EQ(residual[0]->dim, 2u);  // Z
  // The candidate bitmap covers exactly the X- and Y-selected rows.
  uint64_t expected = 0;
  for (uint64_t row = 0; row < base_->table().num_rows(); ++row) {
    const bool x_ok = schema().dim(0).MapUp(0, 1, base_->table().key(0, row)) == 1;
    const bool y_ok = schema().dim(1).MapUp(0, 2, base_->table().key(1, row)) == 0;
    if (x_ok && y_ok) {
      ++expected;
      ASSERT_TRUE(candidates.Test(row)) << row;
    } else {
      ASSERT_FALSE(candidates.Test(row)) << row;
    }
  }
  EXPECT_EQ(candidates.CountSetBits(), expected);
}

TEST_F(ResidualTest, SharedIndexJoinWithResidualsMatchesBruteForce) {
  DimensionalQuery other = MakeQuery(schema(), 2, "Y'",
                                     {{"Y", 1, {3}}, {"Z", 1, {0}}});
  const auto results = RunClass({}, {&query_, &other}, /*probe=*/true);
  EXPECT_TRUE(results[0].ApproxEquals(
      BruteForce(schema(), base_->table(), query_)));
  EXPECT_TRUE(results[1].ApproxEquals(
      BruteForce(schema(), base_->table(), other)));
}

TEST_F(ResidualTest, HybridJoinWithResidualsMatchesBruteForce) {
  DimensionalQuery hash_q = MakeQuery(schema(), 2, "X''", {{"X", 2, {0}}});
  const auto results = RunClass({&hash_q}, {&query_}, /*probe=*/false);
  EXPECT_TRUE(results[0].ApproxEquals(
      BruteForce(schema(), base_->table(), hash_q)));
  EXPECT_TRUE(results[1].ApproxEquals(
      BruteForce(schema(), base_->table(), query_)));
}

TEST_F(ResidualTest, CostModelSeparatesCandidatesFromMatches) {
  // Candidates ignore the residual Z predicate.
  const double cand_sel = cost().CandidateSelectivity(query_, *base_);
  const double full_sel = query_.Selectivity(schema());
  EXPECT_GT(cand_sel, full_sel);
  // Exact statistics land near (but not exactly on) the uniform product
  // X' 1/4 x Y'' 1/2 for uniformly generated keys.
  EXPECT_NEAR(cand_sel, (1.0 / 4) * (1.0 / 2), 0.01);
  EXPECT_EQ(cost().ResidualDims(query_, *base_), 1u);
  // Index is available despite the unindexed Z.
  EXPECT_TRUE(cost().IndexAvailable(query_, *base_));
  // A query restricted only on Z has no usable index.
  DimensionalQuery z_only = MakeQuery(schema(), 3, "Z'", {{"Z", 1, {1}}});
  EXPECT_FALSE(cost().IndexAvailable(z_only, *base_));
}

TEST_F(ResidualTest, LookupIoExcludesResidualDims) {
  // Lookup I/O must only fetch X and Y segments; adding a Z predicate to a
  // query must not change it.
  DimensionalQuery no_z = MakeQuery(schema(), 2, "X'Z'",
                                    {{"X", 1, {1}}, {"Y", 2, {0}}});
  EXPECT_DOUBLE_EQ(cost().IndexLookupIoMs(query_, *base_),
                   cost().IndexLookupIoMs(no_z, *base_));
}

TEST_F(ResidualTest, OptimizerUsesPartialIndexWhenWorthIt) {
  // A wide schema where the indexed prefix alone is very selective
  // (1/25600): an index plan must win even though W stays unindexed —
  // including under the compressed layout, whose cheaper sequential scans
  // raise the selectivity bar for index plans.
  std::vector<DimensionConfig> dims;
  dims.push_back({.name = "X", .top_cardinality = 2, .fanouts = {8, 10}});
  dims.push_back({.name = "Y", .top_cardinality = 2, .fanouts = {8, 10}});
  dims.push_back({.name = "W", .top_cardinality = 3, .fanouts = {4}});
  Engine engine(StarSchema(std::move(dims), "m"));
  engine.LoadFactTable({.num_rows = 60000, .seed = 91});
  ASSERT_TRUE(engine.BuildIndexes("XYW", {"X", "Y"}).ok());
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(engine.schema(), 1, "XY",
                              {{"X", 0, {3}}, {"Y", 0, {7}}, {"W", 1, {1}}}));
  const GlobalPlan plan =
      engine.Optimize(queries, OptimizerKind::kGlobalGreedy);
  ASSERT_EQ(plan.classes.size(), 1u);
  EXPECT_EQ(plan.classes[0].members[0].method, JoinMethod::kIndexProbe);
  const auto results = engine.Execute(plan);
  EXPECT_TRUE(results[0].result.ApproxEquals(BruteForce(
      engine.schema(), engine.base_view()->table(), queries[0])));
}

// ------------------------------------------------- oversized class chunks

TEST(OversizedClassTest, SplitsBeyondMaskWidthAndStaysCorrect) {
  Engine engine(SmallSchema());
  engine.LoadFactTable({.num_rows = 8000, .seed = 93});
  const StarSchema& schema = engine.schema();

  // 40 queries (> 32), one per (X base member, Z'' member) pair slice.
  std::vector<DimensionalQuery> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(MakeQuery(schema, i + 1, "X'",
                                {{"X", 0, {i % 12}}, {"Z", 1, {i % 3}}}));
  }
  GlobalPlan plan;
  plan.classes.push_back(ClassPlan{});
  plan.classes[0].base = engine.base_view();
  for (const auto& q : queries) {
    LocalPlan lp;
    lp.query = &q;
    lp.method = JoinMethod::kHashScan;
    plan.classes[0].members.push_back(lp);
  }

  engine.ConsumeIoStats();
  const auto results = engine.Execute(plan);
  const IoStats io = engine.ConsumeIoStats();
  ASSERT_EQ(results.size(), 40u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].result.ApproxEquals(
        BruteForce(schema, engine.base_view()->table(), queries[i])))
        << "Q" << i + 1;
  }
  // Two chunks: exactly two scans of the base, far fewer than 40.
  EXPECT_EQ(io.seq_pages_read, 2 * engine.base_view()->table().num_pages());
}

}  // namespace
}  // namespace starshare
