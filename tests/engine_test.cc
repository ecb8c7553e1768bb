#include <gtest/gtest.h>

#include "core/engine.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BruteForce;
using testing::MakeQuery;
using testing::SmallSchema;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(SmallSchema());
    base_ = engine_->LoadFactTable({.num_rows = 20000, .seed = 61});
  }

  const StarSchema& schema() const { return engine_->schema(); }

  std::unique_ptr<Engine> engine_;
  MaterializedView* base_ = nullptr;
};

TEST_F(EngineTest, LoadFactTableRegistersBase) {
  ASSERT_NE(base_, nullptr);
  EXPECT_EQ(engine_->base_view(), base_);
  EXPECT_EQ(base_->spec(), GroupBySpec::Base(schema()));
  EXPECT_EQ(base_->table().num_rows(), 20000u);
  EXPECT_NE(engine_->catalog().Find("XYZ"), nullptr);
  EXPECT_FALSE(base_->clustered());
}

TEST_F(EngineTest, DoubleLoadFails) {
  Engine other(SmallSchema());
  other.LoadFactTable({.num_rows = 10});
  auto table = std::make_unique<Table>(
      "dup", std::vector<std::string>{"X", "Y", "Z"}, "amount");
  EXPECT_EQ(other.AttachFactTable(std::move(table)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, AttachValidatesColumnCount) {
  Engine other(SmallSchema());
  auto table = std::make_unique<Table>(
      "bad", std::vector<std::string>{"X"}, "amount");
  EXPECT_EQ(other.AttachFactTable(std::move(table)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, AttachValidatesKeyColumnNames) {
  // X and Y share a domain, so swapped columns pass the domain check; only
  // their names tell.
  Engine other(SmallSchema());
  auto table = std::make_unique<Table>(
      "swapped", std::vector<std::string>{"Y", "X", "Z"}, "amount");
  const int32_t keys[] = {1, 2, 3};
  table->AppendRow(keys, 1.0);
  EXPECT_EQ(other.AttachFactTable(std::move(table)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(other.base_view(), nullptr);
}

TEST_F(EngineTest, AttachValidatesKeyDomain) {
  // X has 12 base members; a key outside [0, 12) would index past every
  // pass mask and statistics array.
  for (const int32_t bad_key : {12, -1}) {
    Engine other(SmallSchema());
    auto table = std::make_unique<Table>(
        "bad", std::vector<std::string>{"X", "Y", "Z"}, "amount");
    const int32_t keys[] = {bad_key, 0, 0};
    table->AppendRow(keys, 1.0);
    EXPECT_EQ(other.AttachFactTable(std::move(table)).status().code(),
              StatusCode::kInvalidArgument)
        << bad_key;
    EXPECT_EQ(other.base_view(), nullptr);
  }
}

TEST_F(EngineTest, MaterializeViewParsesAndBuilds) {
  auto view = engine_->MaterializeView("X'Y''");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view.value()->clustered());  // heap order by default
  auto clustered = engine_->MaterializeView("X''Y'", /*clustered=*/true);
  ASSERT_TRUE(clustered.ok());
  EXPECT_TRUE(clustered.value()->clustered());
  EXPECT_LE(view.value()->table().num_rows(), 8u);
  // Registered in the catalog under the spec string.
  EXPECT_NE(engine_->catalog().Find("X'Y''"), nullptr);
  // A second materialization of the same spec fails.
  EXPECT_FALSE(engine_->MaterializeView("X'Y''").ok());
  // Garbage specs fail.
  EXPECT_FALSE(engine_->MaterializeView("Q9").ok());
}

TEST_F(EngineTest, MaterializeUsesSmallestSource) {
  ASSERT_TRUE(engine_->MaterializeView("X'Y'Z'").ok());
  engine_->ConsumeIoStats();
  ASSERT_TRUE(engine_->MaterializeView("X''Y''").ok());
  // Building X''Y'' should scan the small view, not the 20k-row base.
  const IoStats stats = engine_->ConsumeIoStats();
  const Table* small = engine_->catalog().Find("X'Y'Z'");
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(stats.seq_pages_read, small->num_pages());
}

TEST_F(EngineTest, BuildIndexesValidates) {
  ASSERT_TRUE(engine_->MaterializeView("X'Y'").ok());
  EXPECT_TRUE(engine_->BuildIndexes("X'Y'", {"X", "Y"}).ok());
  EXPECT_EQ(engine_->BuildIndexes("X'Y'", {"Z"}).code(),
            StatusCode::kInvalidArgument);  // Z aggregated away
  EXPECT_EQ(engine_->BuildIndexes("X'Y'", {"W"}).code(),
            StatusCode::kNotFound);  // no such dimension
  EXPECT_EQ(engine_->BuildIndexes("X''Y''", {"X"}).code(),
            StatusCode::kNotFound);  // view not materialized
}

TEST_F(EngineTest, ParseMdxEndToEnd) {
  auto queries =
      engine_->ParseMdx("{X''.X1.CHILDREN} on COLUMNS CONTEXT Cube;");
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  ASSERT_EQ(queries.value().size(), 1u);
  EXPECT_EQ(queries.value()[0].target().ToString(schema()), "X'");
  EXPECT_FALSE(engine_->ParseMdx("not mdx at all").ok());
}

TEST_F(EngineTest, ExecutePlanMatchesNaiveAndBruteForce) {
  ASSERT_TRUE(engine_->MaterializeView("X'Y'").ok());
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X'Y''", {{"X", 2, {0}}}));
  queries.push_back(MakeQuery(schema(), 2, "X''Y'", {{"Y", 2, {1}}}));
  queries.push_back(MakeQuery(schema(), 3, "X''", {}));

  const GlobalPlan plan =
      engine_->Optimize(queries, OptimizerKind::kGlobalGreedy);
  const auto shared = engine_->Execute(plan);
  const auto naive = engine_->ExecuteNaive(queries);

  ASSERT_EQ(shared.size(), 3u);
  ASSERT_EQ(naive.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(shared[i].query->id(), static_cast<int>(i) + 1);
    EXPECT_TRUE(shared[i].result.ApproxEquals(naive[i].result));
    EXPECT_TRUE(shared[i].result.ApproxEquals(
        BruteForce(schema(), base_->table(), queries[i])));
  }
}

TEST_F(EngineTest, SharedExecutionSavesIo) {
  ASSERT_TRUE(engine_->MaterializeView("X'Y'").ok());
  std::vector<DimensionalQuery> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(MakeQuery(schema(), i + 1, "X'Y''",
                                {{"X", 2, {i % 2}}}));
  }
  const GlobalPlan plan =
      engine_->Optimize(queries, OptimizerKind::kGlobalGreedy);
  engine_->ConsumeIoStats();
  engine_->Execute(plan);
  const IoStats shared = engine_->ConsumeIoStats();
  engine_->ExecuteNaive(queries);
  const IoStats naive = engine_->ConsumeIoStats();
  EXPECT_LT(shared.TotalPagesRead(), naive.TotalPagesRead());
}

TEST_F(EngineTest, NonSumQueriesExecuteFromBase) {
  ASSERT_TRUE(engine_->MaterializeView("X'").ok());
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X'", {}, AggOp::kMax));
  queries.push_back(MakeQuery(schema(), 2, "X'", {}, AggOp::kCount));
  const GlobalPlan plan =
      engine_->Optimize(queries, OptimizerKind::kGlobalGreedy);
  const auto results = engine_->Execute(plan);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(results[i].result.ApproxEquals(
        BruteForce(schema(), base_->table(), queries[i])));
  }
}

TEST_F(EngineTest, BufferPoolAbsorbsRepeatedScans) {
  EngineConfig config;
  config.buffer_pool_pages = 100000;
  Engine warm(SmallSchema(), config);
  warm.LoadFactTable({.num_rows = 20000, .seed = 61});
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(warm.schema(), 1, "X''", {}));
  warm.ConsumeIoStats();
  warm.ExecuteNaive(queries);
  const IoStats cold_run = warm.ConsumeIoStats();
  warm.ExecuteNaive(queries);
  const IoStats warm_run = warm.ConsumeIoStats();
  EXPECT_GT(cold_run.seq_pages_read, 0u);
  EXPECT_EQ(warm_run.seq_pages_read, 0u);
  EXPECT_EQ(warm_run.cached_pages, cold_run.seq_pages_read);
  // Flushing re-colds the pool.
  warm.FlushCaches();
  warm.ExecuteNaive(queries);
  EXPECT_GT(warm.ConsumeIoStats().seq_pages_read, 0u);
}

TEST_F(EngineTest, ConsumeIoStatsResets) {
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X''", {}));
  engine_->ConsumeIoStats();
  engine_->ExecuteNaive(queries);
  EXPECT_GT(engine_->ConsumeIoStats().TotalPagesRead(), 0u);
  EXPECT_EQ(engine_->ConsumeIoStats().TotalPagesRead(), 0u);
}

TEST_F(EngineTest, ModeledIoMsUsesConfiguredTimings) {
  IoStats stats;
  stats.seq_pages_read = 100;
  stats.rand_pages_read = 10;
  EXPECT_DOUBLE_EQ(engine_->ModeledIoMs(stats), 100.0 * 1.0 + 10.0 * 10.0);
}

}  // namespace
}  // namespace starshare
