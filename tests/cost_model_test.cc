#include <gtest/gtest.h>

#include <cmath>

#include "cost/cost_model.h"
#include "cube/view_builder.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::MakeQuery;
using testing::SmallSchema;

TEST(YaoTest, Boundaries) {
  EXPECT_DOUBLE_EQ(YaoDistinctPages(0, 100), 0);
  EXPECT_DOUBLE_EQ(YaoDistinctPages(10, 0), 0);
  EXPECT_DOUBLE_EQ(YaoDistinctPages(1, 5), 1);
}

TEST(YaoTest, MonotoneAndBounded) {
  double prev = 0;
  for (double rows : {1.0, 10.0, 100.0, 1000.0, 100000.0}) {
    const double pages = YaoDistinctPages(100, rows);
    EXPECT_GT(pages, prev);
    EXPECT_LE(pages, 100.0);
    prev = pages;
  }
  // Saturates to the full table.
  EXPECT_NEAR(YaoDistinctPages(100, 1e7), 100.0, 1e-6);
}

TEST(YaoTest, SparseProbesTouchAboutOnePageEach) {
  EXPECT_NEAR(YaoDistinctPages(100000, 10), 10.0, 0.1);
}

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGenerator gen(schema_, {.num_rows = 50000, .seed = 41});
    base_table_ = gen.Generate("base");
    base_ = std::make_unique<MaterializedView>(
        schema_, GroupBySpec::Base(schema_), base_table_.get());
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      base_->BuildIndex(schema_, d, disk_);
    }
    ViewBuilder builder(schema_);
    small_spec_ = GroupBySpec::Parse("X''Y''Z'", schema_).value();
    small_table_ =
        std::move(builder.Build(*base_, {small_spec_}, disk_).value().front());
    small_ = std::make_unique<MaterializedView>(schema_, small_spec_,
                                                small_table_.get());
    cost_ = std::make_unique<CostModel>(schema_, DiskTimings{}, CpuCosts{});
  }

  StarSchema schema_ = SmallSchema();
  DiskModel disk_;
  std::unique_ptr<Table> base_table_;
  std::unique_ptr<MaterializedView> base_;
  GroupBySpec small_spec_;
  std::unique_ptr<Table> small_table_;
  std::unique_ptr<MaterializedView> small_;
  std::unique_ptr<CostModel> cost_;
};

TEST_F(CostModelTest, MatchRowsTracksSelectivity) {
  DimensionalQuery half = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  EXPECT_NEAR(cost_->MatchRows(half, *base_), 25000, 1);
  DimensionalQuery all = MakeQuery(schema_, 2, "X''", {});
  EXPECT_NEAR(cost_->MatchRows(all, *base_), 50000, 1);
}

TEST_F(CostModelTest, ScanIoUsesPageCount) {
  EXPECT_DOUBLE_EQ(cost_->ScanIoMs(*base_),
                   static_cast<double>(base_table_->num_pages()) * 1.0);
}

TEST_F(CostModelTest, IndexAvailability) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  EXPECT_TRUE(cost_->IndexAvailable(q, *base_));
  EXPECT_FALSE(cost_->IndexAvailable(q, *small_));  // no indexes built
  DimensionalQuery unrestricted = MakeQuery(schema_, 2, "X''", {});
  EXPECT_FALSE(cost_->IndexAvailable(unrestricted, *base_));
}

TEST_F(CostModelTest, IndexJoinInfiniteWhenUnavailable) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X''", {});
  EXPECT_TRUE(std::isinf(cost_->IndexJoinCostMs(q, *base_)));
}

TEST_F(CostModelTest, SelectiveQueryPrefersIndex) {
  // One base member of each dimension: ~50000/1728 = 29 rows. On an
  // *unclustered* table those rows spread over ~29 random pages, so with a
  // 10:1 random:sequential ratio a scan still wins at this scale; with a
  // flash-like 2:1 ratio the index must win.
  CostModel cheap_rand(schema_, DiskTimings{.rand_page_ms = 2.0},
                       CpuCosts{});
  DimensionalQuery needle = MakeQuery(
      schema_, 1, "XYZ", {{"X", 0, {1}}, {"Y", 0, {2}}, {"Z", 0, {3}}});
  const auto [method, ms] = cheap_rand.BestSingleCost(needle, *base_);
  EXPECT_EQ(method, JoinMethod::kIndexProbe);
  EXPECT_LT(ms, cheap_rand.HashJoinCostMs(needle, *base_));
}

TEST_F(CostModelTest, ClusteredViewProbeFarCheaperThanYao) {
  // Build an indexed, clustered copy of the small view and compare the
  // probe estimate for a predicate on its leading column against the
  // uniform-spread estimate.
  small_->set_clustered(true);
  DimensionalQuery q = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  const double clustered = cost_->ProbeDistinctPages(q, *small_);
  small_->set_clustered(false);
  const double yao = cost_->ProbeDistinctPages(q, *small_);
  EXPECT_LE(clustered, yao);
  small_->set_clustered(true);
  // Half the rows, contiguous: about half the pages (+1 boundary page).
  EXPECT_LE(clustered, small_table_->num_pages() / 2.0 + 1.0);
}

TEST_F(CostModelTest, NonSelectiveQueryPrefersHash) {
  DimensionalQuery broad = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  const auto [method, ms] = cost_->BestSingleCost(broad, *base_);
  EXPECT_EQ(method, JoinMethod::kHashScan);
}

TEST_F(CostModelTest, SmallerViewCheaperForSameQuery) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X''Y''", {});
  EXPECT_LT(cost_->HashJoinCostMs(q, *small_),
            cost_->HashJoinCostMs(q, *base_));
}

TEST_F(CostModelTest, SharedProbeNoLargerThanSumOfProbes) {
  DimensionalQuery a = MakeQuery(schema_, 1, "X'", {{"X", 1, {0}}});
  DimensionalQuery b = MakeQuery(schema_, 2, "X'", {{"X", 1, {1}}});
  const double together = cost_->SharedProbeIoMs({&a, &b}, *base_);
  const double separate =
      cost_->ProbeIoMs(a, *base_) + cost_->ProbeIoMs(b, *base_);
  EXPECT_LE(together, separate + 1e-9);
}

TEST_F(CostModelTest, SharedScanCpuGrowsWithUnionDims) {
  DimensionalQuery qx = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  DimensionalQuery qy = MakeQuery(schema_, 2, "Y''", {{"Y", 2, {0}}});
  const double one = cost_->SharedScanCpuMs({&qx}, *base_);
  const double two = cost_->SharedScanCpuMs({&qx, &qy}, *base_);
  EXPECT_GT(two, one);
  // Same dimension twice shares the probe: no growth.
  DimensionalQuery qx2 = MakeQuery(schema_, 3, "X''", {{"X", 2, {1}}});
  EXPECT_DOUBLE_EQ(cost_->SharedScanCpuMs({&qx, &qx2}, *base_), one);
}

TEST_F(CostModelTest, ClassOfTwoCheaperThanTwoSingletons) {
  DimensionalQuery a = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  DimensionalQuery b = MakeQuery(schema_, 2, "Y''", {{"Y", 2, {1}}});
  const double together = cost_->ClassCostMs(base_.get(), {&a, &b});
  const double separate = cost_->HashJoinCostMs(a, *base_) +
                          cost_->HashJoinCostMs(b, *base_);
  EXPECT_LT(together, separate);
  // One scan is shared, so the saving is about one full scan.
  EXPECT_NEAR(separate - together, cost_->ScanIoMs(*base_),
              cost_->ScanIoMs(*base_) * 0.2);
}

TEST_F(CostModelTest, CostOfAddNonNegativeAndMarginal) {
  DimensionalQuery a = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  DimensionalQuery b = MakeQuery(schema_, 2, "Y''", {{"Y", 2, {1}}});
  ClassPlan cls = cost_->MakeClassPlan(base_.get(), {&a});
  const double marginal = cost_->CostOfAddMs(cls, b);
  EXPECT_GE(marginal, 0);
  // Adding to a scanning class costs far less than a standalone plan.
  EXPECT_LT(marginal, cost_->HashJoinCostMs(b, *base_));
}

TEST_F(CostModelTest, MakeClassPlanAllSelectivePicksIndexForm) {
  CostModel cheap_rand(schema_, DiskTimings{.rand_page_ms = 2.0},
                       CpuCosts{});
  DimensionalQuery a = MakeQuery(
      schema_, 1, "XYZ", {{"X", 0, {1}}, {"Y", 0, {2}}, {"Z", 0, {3}}});
  DimensionalQuery b = MakeQuery(
      schema_, 2, "XYZ", {{"X", 0, {5}}, {"Y", 0, {6}}, {"Z", 0, {7}}});
  ClassPlan cls = cheap_rand.MakeClassPlan(base_.get(), {&a, &b});
  EXPECT_FALSE(cls.HasHashMember());
  EXPECT_TRUE(cls.HasIndexMember());
  EXPECT_GT(cls.est_shared_io_ms, 0);  // the shared probe pass
}

TEST_F(CostModelTest, MakeClassPlanMixedKeepsScan) {
  DimensionalQuery broad = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  DimensionalQuery needle = MakeQuery(
      schema_, 2, "XYZ", {{"X", 0, {1}}, {"Y", 0, {2}}, {"Z", 0, {3}}});
  ClassPlan cls = cost_->MakeClassPlan(base_.get(), {&broad, &needle});
  EXPECT_TRUE(cls.HasHashMember());
  // Shared I/O is exactly the scan.
  EXPECT_DOUBLE_EQ(cls.est_shared_io_ms, cost_->ScanIoMs(*base_));
}

TEST_F(CostModelTest, ClassCostMonotoneInMembership) {
  DimensionalQuery a = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  DimensionalQuery b = MakeQuery(schema_, 2, "Y''", {{"Y", 2, {1}}});
  DimensionalQuery c = MakeQuery(schema_, 3, "Z'", {{"Z", 1, {0}}});
  const double one = cost_->ClassCostMs(base_.get(), {&a});
  const double two = cost_->ClassCostMs(base_.get(), {&a, &b});
  const double three = cost_->ClassCostMs(base_.get(), {&a, &b, &c});
  EXPECT_LE(one, two);
  EXPECT_LE(two, three);
}

TEST_F(CostModelTest, AnnotatePlanFillsEstimates) {
  DimensionalQuery a = MakeQuery(schema_, 1, "X''", {{"X", 2, {0}}});
  GlobalPlan plan;
  plan.classes.push_back(ClassPlan{});
  plan.classes[0].base = base_.get();
  LocalPlan lp;
  lp.query = &a;
  lp.method = JoinMethod::kHashScan;
  plan.classes[0].members.push_back(lp);
  cost_->AnnotatePlan(plan);
  EXPECT_GT(plan.EstMs(), 0);
  EXPECT_DOUBLE_EQ(plan.classes[0].est_shared_io_ms,
                   cost_->ScanIoMs(*base_));
}

TEST(PlanTest, ExplainAndAccessors) {
  StarSchema s = SmallSchema();
  DataGenerator gen(s, {.num_rows = 1000, .seed = 1});
  auto table = gen.Generate("base");
  MaterializedView view(s, GroupBySpec::Base(s), table.get());
  DimensionalQuery q = MakeQuery(s, 7, "X''", {{"X", 2, {0}}});

  GlobalPlan plan;
  plan.classes.push_back(ClassPlan{});
  plan.classes[0].base = &view;
  LocalPlan lp;
  lp.query = &q;
  lp.method = JoinMethod::kIndexProbe;
  plan.classes[0].members.push_back(lp);

  EXPECT_EQ(plan.NumQueries(), 1u);
  ASSERT_TRUE(plan.ClassOf(7).has_value());
  EXPECT_EQ(*plan.ClassOf(7), 0u);
  EXPECT_FALSE(plan.ClassOf(8).has_value());
  EXPECT_TRUE(plan.classes[0].HasIndexMember());
  EXPECT_FALSE(plan.classes[0].HasHashMember());
  const std::string text = plan.Explain(s);
  EXPECT_NE(text.find("Q7"), std::string::npos);
  EXPECT_NE(text.find("index-probe"), std::string::npos);
  EXPECT_STREQ(JoinMethodName(JoinMethod::kHashScan), "hash-scan");
}

}  // namespace
}  // namespace starshare
