#include <gtest/gtest.h>

#include "cube/view_builder.h"
#include "exec/executor.h"
#include "exec/operators/class_pipeline.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BruteForce;
using testing::MakeQuery;
using testing::SmallSchema;

class SharedOperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGenerator gen(schema_, {.num_rows = 10000, .seed = 31});
    base_table_ = gen.Generate("base");
    base_ = std::make_unique<MaterializedView>(
        schema_, GroupBySpec::Base(schema_), base_table_.get());
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      base_->BuildIndex(schema_, d, disk_);
    }
    // Disjoint-predicate queries over the same base table — the paper's
    // exact sharing situation (no common selections).
    queries_.push_back(MakeQuery(schema_, 1, "X'Y''", {{"X", 2, {0}}}));
    queries_.push_back(MakeQuery(schema_, 2, "X''Y'", {{"Y", 2, {1}}}));
    queries_.push_back(
        MakeQuery(schema_, 3, "X''Z'", {{"X", 2, {1}}, {"Z", 1, {1, 2}}}));
    queries_.push_back(MakeQuery(schema_, 4, "X'Y'",
                                 {{"X", 1, {3}}, {"Y", 1, {2}}}));
    disk_.ResetStats();
  }

  std::vector<const DimensionalQuery*> Ptrs(size_t n) const {
    std::vector<const DimensionalQuery*> out;
    for (size_t i = 0; i < n; ++i) out.push_back(&queries_[i]);
    return out;
  }

  // Runs one shared class (hash members first in the results) on disk_;
  // every member must succeed.
  std::vector<QueryResult> RunClass(
      const std::vector<const DimensionalQuery*>& hash,
      const std::vector<const DimensionalQuery*>& index, bool probe,
      const MaterializedView* view = nullptr) {
    SharedClassRequest req;
    req.schema = &schema_;
    req.hash_queries = hash;
    req.index_queries = index;
    req.view = view != nullptr ? view : base_.get();
    req.disk = &disk_;
    req.probe = probe;
    Result<SharedOutcome> outcome = ExecuteSharedClass(req);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return {};
    for (const Status& status : outcome->statuses) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return std::move(outcome->results);
  }
  std::vector<QueryResult> SharedScan(
      const std::vector<const DimensionalQuery*>& queries,
      const MaterializedView* view = nullptr) {
    return RunClass(queries, {}, /*probe=*/false, view);
  }
  std::vector<QueryResult> SharedIndex(
      const std::vector<const DimensionalQuery*>& queries) {
    return RunClass({}, queries, /*probe=*/true);
  }

  // One query on its own (§3 Figs. 1 and 3) on disk_.
  QueryResult Single(const DimensionalQuery& query, JoinMethod method) {
    Result<QueryResult> result =
        Executor(schema_, disk_).ExecuteSingle(query, *base_, method);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  }

  StarSchema schema_ = SmallSchema();
  DiskModel disk_;
  std::unique_ptr<Table> base_table_;
  std::unique_ptr<MaterializedView> base_;
  std::vector<DimensionalQuery> queries_;
};

TEST_F(SharedOperatorsTest, SharedScanMatchesBruteForce) {
  const auto results = SharedScan(Ptrs(4));
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(results[i].ApproxEquals(
        BruteForce(schema_, *base_table_, queries_[i])))
        << "query " << i + 1;
  }
}

TEST_F(SharedOperatorsTest, SharedScanChargesExactlyOneScan) {
  disk_.ResetStats();
  SharedScan(Ptrs(4));
  EXPECT_EQ(disk_.stats().seq_pages_read, base_table_->num_pages());
  EXPECT_EQ(disk_.stats().rand_pages_read, 0u);
}

TEST_F(SharedOperatorsTest, SeparateScansChargeKTimes) {
  disk_.ResetStats();
  for (size_t i = 0; i < 4; ++i) {
    Single(queries_[i], JoinMethod::kHashScan);
  }
  EXPECT_EQ(disk_.stats().seq_pages_read, 4 * base_table_->num_pages());
}

TEST_F(SharedOperatorsTest, SharedScanSingleQueryEqualsPlainJoin) {
  const auto shared = SharedScan(Ptrs(1));
  const QueryResult plain = Single(queries_[0], JoinMethod::kHashScan);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_TRUE(shared[0].ApproxEquals(plain));
}

TEST_F(SharedOperatorsTest, SharedIndexMatchesBruteForce) {
  const auto results = SharedIndex(Ptrs(4));
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(results[i].ApproxEquals(
        BruteForce(schema_, *base_table_, queries_[i])))
        << "query " << i + 1;
  }
}

TEST_F(SharedOperatorsTest, SharedIndexProbesUnionOnce) {
  // Individual probes.
  disk_.ResetStats();
  for (size_t i = 0; i < 3; ++i) {
    Single(queries_[i], JoinMethod::kIndexProbe);
  }
  const uint64_t separate_rand = disk_.stats().rand_pages_read;

  // Shared probe over the OR of the result bitmaps.
  disk_.ResetStats();
  SharedIndex(Ptrs(3));
  const uint64_t shared_rand = disk_.stats().rand_pages_read;

  EXPECT_LT(shared_rand, separate_rand);
  EXPECT_LE(shared_rand, base_table_->num_pages());
}

TEST_F(SharedOperatorsTest, HybridMatchesBruteForce) {
  const auto hash_queries = std::vector<const DimensionalQuery*>{
      &queries_[0], &queries_[1]};
  const auto index_queries = std::vector<const DimensionalQuery*>{
      &queries_[2], &queries_[3]};
  const auto results =
      RunClass(hash_queries, index_queries, /*probe=*/false);
  ASSERT_EQ(results.size(), 4u);
  // Order: hash queries first, then index queries.
  EXPECT_TRUE(results[0].ApproxEquals(
      BruteForce(schema_, *base_table_, queries_[0])));
  EXPECT_TRUE(results[1].ApproxEquals(
      BruteForce(schema_, *base_table_, queries_[1])));
  EXPECT_TRUE(results[2].ApproxEquals(
      BruteForce(schema_, *base_table_, queries_[2])));
  EXPECT_TRUE(results[3].ApproxEquals(
      BruteForce(schema_, *base_table_, queries_[3])));
}

TEST_F(SharedOperatorsTest, HybridChargesScanButNoProbe) {
  disk_.ResetStats();
  RunClass({&queries_[0]}, {&queries_[3]}, /*probe=*/false);
  // The index member rides the scan: no random I/O at all (§3.3).
  EXPECT_EQ(disk_.stats().seq_pages_read, base_table_->num_pages());
  EXPECT_EQ(disk_.stats().rand_pages_read, 0u);
  EXPECT_GT(disk_.stats().index_pages_read, 0u);  // bitmap lookups remain
}

TEST_F(SharedOperatorsTest, SharedScanHandlesUnrestrictedQuery) {
  DimensionalQuery open = MakeQuery(schema_, 9, "X''", {});
  std::vector<const DimensionalQuery*> qs = {&open, &queries_[0]};
  const auto results = SharedScan(qs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(
      results[0].ApproxEquals(BruteForce(schema_, *base_table_, open)));
  EXPECT_TRUE(results[1].ApproxEquals(
      BruteForce(schema_, *base_table_, queries_[0])));
}

TEST_F(SharedOperatorsTest, SharedScanOnAggregateView) {
  ViewBuilder builder(schema_);
  auto spec = GroupBySpec::Parse("X'Y'Z", schema_).value();
  auto table = std::move(builder.Build(*base_, {spec}, disk_).value().front());
  MaterializedView view(schema_, spec, table.get());
  const auto results = SharedScan(Ptrs(3), &view);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[i].ApproxEquals(
        BruteForce(schema_, *base_table_, queries_[i])))
        << "query " << i + 1;
  }
}

TEST_F(SharedOperatorsTest, DisjointPredicatesDontCrossContaminate) {
  // Two queries selecting different X'' slices; each result must contain
  // only its own slice's groups.
  DimensionalQuery left = MakeQuery(schema_, 1, "X'", {{"X", 2, {0}}});
  DimensionalQuery right = MakeQuery(schema_, 2, "X'", {{"X", 2, {1}}});
  const auto results = SharedScan({&left, &right});
  for (const auto& row : results[0].rows()) {
    EXPECT_LT(row.keys[0], 2);  // X' children of X1 are 0..1
  }
  for (const auto& row : results[1].rows()) {
    EXPECT_GE(row.keys[0], 2);
  }
}

TEST_F(SharedOperatorsTest, ManyQueriesOneScan) {
  // One single-member query per X' member — still one scan.
  std::vector<DimensionalQuery> many;
  for (int32_t m = 0; m < 4; ++m) {
    many.push_back(MakeQuery(schema_, 100 + m, "X'", {{"X", 1, {m}}}));
  }
  std::vector<const DimensionalQuery*> ptrs;
  for (const auto& q : many) ptrs.push_back(&q);
  disk_.ResetStats();
  const auto results = SharedScan(ptrs);
  EXPECT_EQ(disk_.stats().seq_pages_read, base_table_->num_pages());
  double total = 0;
  for (const auto& r : results) total += r.TotalValue();
  // The four slices partition the table: totals must add up to the full sum.
  double full = 0;
  for (uint64_t r = 0; r < base_table_->num_rows(); ++r) {
    full += base_table_->measure(r);
  }
  EXPECT_NEAR(total, full, 1e-6 * full);
}

}  // namespace
}  // namespace starshare
