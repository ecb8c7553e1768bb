// The vectorized engine's core promise (DESIGN.md "Vectorized execution
// model"): at any batch size and thread count every aggregate folds its
// rows in row order from 0.0, so batch execution is BIT-identical to an
// independent oracle that folds the same way — testing::BruteForce for
// query classes, testing::ReferenceBuild for view builds and refreshes —
// and charges the same IoStats at every batch size. The fixture's view is
// the base table, so the oracles fold exactly the rows the engine folds,
// in the same order; nothing here uses tolerances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

#include "core/paper_workload.h"
#include "cube/view_builder.h"
#include "exec/operators/class_pipeline.h"
#include "parallel/thread_pool.h"
#include "schema/data_generator.h"
#include "tests/oracles.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::BruteForce;
using testing::MakeQuery;
using testing::ReferenceBuild;
using testing::SmallSchema;

void ExpectTablesBitIdentical(const Table& a, const Table& b,
                              const char* label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.num_key_columns(), b.num_key_columns()) << label;
  ASSERT_EQ(a.num_measures(), b.num_measures()) << label;
  for (uint64_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_key_columns(); ++c) {
      ASSERT_EQ(a.key(c, r), b.key(c, r)) << label << " row " << r;
    }
    for (size_t m = 0; m < a.num_measures(); ++m) {
      const double x = a.measure(r, m), y = b.measure(r, m);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << label << " row " << r << " measure " << m << " differs";
    }
  }
}

// Mixed targets, predicate levels, and every aggregate kind, so key
// translation, selection vectors and every AddBatch specialization are all
// exercised (same mix as the parallel determinism suite).
std::vector<DimensionalQuery> MixedQueries(const StarSchema& schema) {
  std::vector<DimensionalQuery> qs;
  qs.push_back(MakeQuery(schema, 1, "X'Y'Z", {{"X", 1, {0, 2}}}));
  qs.push_back(MakeQuery(schema, 2, "X''Y''Z'", {{"Y", 0, {1, 3, 5, 7}}}));
  qs.push_back(MakeQuery(schema, 3, "XY'Z'", {{"Z", 1, {0}}, {"X", 2, {1}}},
                         AggOp::kMin));
  qs.push_back(MakeQuery(schema, 4, "X'Z'", {}, AggOp::kMax));
  qs.push_back(MakeQuery(schema, 5, "Y''Z", {{"Z", 0, {2, 4, 6}}},
                         AggOp::kCount));
  qs.push_back(MakeQuery(schema, 6, "X''", {{"Y", 1, {2}}}, AggOp::kAvg));
  return qs;
}

// Batch sizes that stress the regrouping edges: degenerate single-row
// batches, a size that never divides a page, and the default.
const size_t kBatchSizes[] = {1, 7, kDefaultBatchRows};

class VectorizedDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGenerator gen(schema_, {.num_rows = 50'000, .seed = 4242});
    table_ = gen.Generate("base");
    table_->set_id(1);
    view_ = std::make_unique<MaterializedView>(
        schema_, GroupBySpec::Base(schema_), table_.get());
    view_->ComputeStats(schema_);
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      DiskModel scratch;
      view_->BuildIndex(schema_, d, scratch);
    }
    queries_ = MixedQueries(schema_);
    for (const auto& q : queries_) query_ptrs_.push_back(&q);
  }

  // Runs one class at `batch_rows`, on `pool`'s threads when given, over
  // `view` (default: the fixture's base view).
  SharedOutcome RunClass(const std::vector<const DimensionalQuery*>& hash,
                         const std::vector<const DimensionalQuery*>& index,
                         bool probe, size_t batch_rows, DiskModel& disk,
                         ThreadPool* pool = nullptr,
                         const MaterializedView* view = nullptr) {
    SharedClassRequest req;
    req.schema = &schema_;
    req.hash_queries = hash;
    req.index_queries = index;
    req.view = view != nullptr ? view : view_.get();
    req.disk = &disk;
    req.probe = probe;
    req.policy.batch.batch_rows = batch_rows;
    if (pool != nullptr) {
      req.policy.pool = pool;
      req.policy.parallelism = pool->num_threads();
    }
    Result<SharedOutcome> outcome = ExecuteSharedClass(req);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? std::move(*outcome) : SharedOutcome();
  }

  // Every member (hash members, then index members) succeeded with the
  // brute-force result's exact bits.
  void ExpectBruteForce(const SharedOutcome& outcome,
                        const std::vector<const DimensionalQuery*>& hash,
                        const std::vector<const DimensionalQuery*>& index,
                        const std::string& label) {
    ASSERT_EQ(outcome.results.size(), hash.size() + index.size()) << label;
    for (size_t i = 0; i < outcome.results.size(); ++i) {
      const DimensionalQuery& q =
          i < hash.size() ? *hash[i] : *index[i - hash.size()];
      EXPECT_TRUE(outcome.statuses[i].ok()) << label << " Q" << q.id();
      EXPECT_TRUE(BitIdentical(outcome.results[i],
                               BruteForce(schema_, *table_, q)))
          << label << " Q" << q.id() << " diverged from the brute-force fold";
    }
  }

  // At every batch size: brute-force bits, and the I/O of the default
  // batch size.
  void CheckEveryBatchSize(const std::vector<const DimensionalQuery*>& hash,
                           const std::vector<const DimensionalQuery*>& index,
                           bool probe, const char* label) {
    DiskModel reference_disk;
    RunClass(hash, index, probe, kDefaultBatchRows, reference_disk);
    for (const size_t batch_rows : kBatchSizes) {
      DiskModel disk;
      const SharedOutcome outcome =
          RunClass(hash, index, probe, batch_rows, disk);
      ExpectBruteForce(outcome, hash, index,
                       std::string(label) + " batch " +
                           std::to_string(batch_rows));
      EXPECT_EQ(disk.stats(), reference_disk.stats())
          << label << " batch " << batch_rows << " charged different I/O";
    }
  }

  // Star-join kernel coverage: runs a hash-only class over the base view
  // `view` at every batch size, serially and on 4 threads. Every member
  // must fold the brute-force bits over view's table, and every run must
  // charge the serial default-batch run's IoStats.
  void CheckKernelClass(const MaterializedView& view,
                        const std::vector<const DimensionalQuery*>& hash,
                        const std::string& label) {
    std::vector<QueryResult> want;
    for (const DimensionalQuery* q : hash) {
      want.push_back(BruteForce(schema_, view.table(), *q));
    }
    DiskModel reference_disk;
    RunClass(hash, {}, /*probe=*/false, kDefaultBatchRows, reference_disk,
             nullptr, &view);
    ThreadPool pool(4);
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (const size_t batch_rows : kBatchSizes) {
        const std::string where =
            label + (threads == nullptr ? ", serial" : ", 4 threads") +
            ", batch " + std::to_string(batch_rows);
        DiskModel disk;
        const SharedOutcome outcome = RunClass(
            hash, {}, /*probe=*/false, batch_rows, disk, threads, &view);
        ASSERT_EQ(outcome.results.size(), hash.size()) << where;
        for (size_t i = 0; i < hash.size(); ++i) {
          EXPECT_TRUE(outcome.statuses[i].ok()) << where;
          EXPECT_TRUE(BitIdentical(outcome.results[i], want[i]))
              << where << ": Q" << hash[i]->id()
              << " diverged from the brute-force fold";
        }
        EXPECT_EQ(disk.stats(), reference_disk.stats())
            << where << " charged different I/O";
      }
    }
  }

  StarSchema schema_ = SmallSchema();
  std::unique_ptr<Table> table_;
  std::unique_ptr<MaterializedView> view_;
  std::vector<DimensionalQuery> queries_;
  std::vector<const DimensionalQuery*> query_ptrs_;
};

TEST_F(VectorizedDeterminismTest, SharedScanBitIdenticalAtEveryBatchSize) {
  CheckEveryBatchSize(query_ptrs_, {}, /*probe=*/false, "scan");
}

TEST_F(VectorizedDeterminismTest, SharedIndexBitIdenticalAtEveryBatchSize) {
  CheckEveryBatchSize({}, {query_ptrs_[0], query_ptrs_[2], query_ptrs_[4]},
                      /*probe=*/true, "index");
}

TEST_F(VectorizedDeterminismTest, SharedHybridBitIdenticalAtEveryBatchSize) {
  CheckEveryBatchSize({query_ptrs_[1], query_ptrs_[3], query_ptrs_[5]},
                      {query_ptrs_[0], query_ptrs_[4]}, /*probe=*/false,
                      "hybrid");
}

TEST_F(VectorizedDeterminismTest, ParallelMatchesBruteForceAndSerialIo) {
  // The acceptance chain in one test: the brute-force fold == the morsel
  // driver at 1 and 4 threads, with the serial driver's IoStats.
  const std::vector<const DimensionalQuery*> hash = {
      query_ptrs_[1], query_ptrs_[3], query_ptrs_[5]};
  const std::vector<const DimensionalQuery*> index = {query_ptrs_[0],
                                                      query_ptrs_[4]};
  DiskModel serial_disk;
  RunClass(hash, index, /*probe=*/false, kDefaultBatchRows, serial_disk);
  DiskModel index_serial_disk;
  RunClass({}, index, /*probe=*/true, kDefaultBatchRows, index_serial_disk);

  for (const size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    DiskModel disk;
    const SharedOutcome parallel =
        RunClass(hash, index, /*probe=*/false, kDefaultBatchRows, disk, &pool);
    ExpectBruteForce(parallel, hash, index,
                     "parallel hybrid, " + std::to_string(threads) +
                         " threads");
    EXPECT_EQ(disk.stats(), serial_disk.stats())
        << threads << "-thread hybrid charged different I/O than serial";

    DiskModel index_disk;
    const SharedOutcome index_parallel = RunClass(
        {}, index, /*probe=*/true, kDefaultBatchRows, index_disk, &pool);
    ExpectBruteForce(index_parallel, {}, index,
                     "parallel index, " + std::to_string(threads) +
                         " threads");
    EXPECT_EQ(index_disk.stats(), index_serial_disk.stats());
  }
}

TEST_F(VectorizedDeterminismTest, KernelRunsMostSelectiveFilterFirst) {
  // Z passes 2 of 12 leaves for both members; X and Y pass every row
  // (each has a member unrestricted there). So Z, the last key column,
  // runs first, and X precedes Y on the tie.
  const DimensionalQuery a = MakeQuery(
      schema_, 1, "X'Y'Z",
      {{"Z", 0, {5}}, {"X", 2, {0}}, {"Y", 1, {0, 1, 2}}});
  const DimensionalQuery b = MakeQuery(
      schema_, 2, "Y''Z'", {{"Z", 0, {5, 7}}, {"Y", 2, {1}}}, AggOp::kMin);
  const std::vector<const DimensionalQuery*> hash = {&a, &b};
  const std::vector<SharedDimFilter> filters =
      BuildSharedFilters(schema_, hash, *view_);
  ASSERT_EQ(filters.size(), 3u);
  EXPECT_EQ(filters[0].col, &table_->key_column(2));
  EXPECT_EQ(filters[1].col, &table_->key_column(0));
  EXPECT_EQ(filters[2].col, &table_->key_column(1));
  CheckKernelClass(*view_, hash, "Z first");
}

TEST_F(VectorizedDeterminismTest, KernelBatchesWhoseSurvivorsReachZero) {
  // The fixture's rows sorted by (Z, X, Y), packed. The Z = 0 slicer runs
  // first, so whole batches past the Z = 0 run die at the first filter,
  // and batches inside it holding only X'' = 0 rows die at the X filter.
  std::vector<uint64_t> order(table_->num_rows());
  std::iota(order.begin(), order.end(), uint64_t{0});
  const auto sort_key = [&](uint64_t r) {
    return std::tuple(table_->key(2, r), table_->key(0, r), table_->key(1, r));
  };
  std::stable_sort(order.begin(), order.end(), [&](uint64_t l, uint64_t r) {
    return sort_key(l) < sort_key(r);
  });
  Table sorted("sorted", {"X", "Y", "Z"}, "amount");
  for (const uint64_t r : order) {
    const int32_t keys[] = {table_->key(0, r), table_->key(1, r),
                            table_->key(2, r)};
    sorted.AppendRow(keys, table_->measure(r));
  }
  sorted.SetCompressed(true);
  sorted.set_id(2);
  MaterializedView view(schema_, GroupBySpec::Base(schema_), &sorted);
  view.ComputeStats(schema_);

  const DimensionalQuery a =
      MakeQuery(schema_, 1, "X'Z", {{"Z", 0, {0}}, {"X", 2, {1}}});
  const DimensionalQuery b = MakeQuery(
      schema_, 2, "Y'", {{"Z", 0, {0}}, {"X", 0, {7}}}, AggOp::kCount);
  const std::vector<SharedDimFilter> filters =
      BuildSharedFilters(schema_, {&a, &b}, view);
  ASSERT_EQ(filters.size(), 2u);
  ASSERT_EQ(filters[0].col, &sorted.key_column(2));

  // Both kinds of batch occur at the default batch size (and so at the
  // smaller ones).
  size_t die_first = 0, die_later = 0;
  for (uint64_t begin = 0; begin < sorted.num_rows();
       begin += kDefaultBatchRows) {
    const uint64_t end =
        std::min<uint64_t>(begin + kDefaultBatchRows, sorted.num_rows());
    bool pass_z = false, pass_zx = false;
    for (uint64_t r = begin; r < end; ++r) {
      if (sorted.key(2, r) != 0) continue;
      pass_z = true;
      pass_zx |= sorted.key(0, r) >= 6;  // X'' = 1
    }
    die_first += !pass_z;
    die_later += pass_z && !pass_zx;
  }
  EXPECT_GT(die_first, 0u);
  EXPECT_GT(die_later, 0u);

  CheckKernelClass(view, {&a}, "sorted, one member");
  CheckKernelClass(view, {&a, &b}, "sorted, two members");
}

TEST_F(VectorizedDeterminismTest, KernelClassWithoutRestrictedDimension) {
  const DimensionalQuery a = MakeQuery(schema_, 1, "X'Y'Z", {});
  const DimensionalQuery b = MakeQuery(schema_, 2, "Z", {}, AggOp::kMax);
  const DimensionalQuery c = MakeQuery(schema_, 3, "X''", {}, AggOp::kAvg);
  EXPECT_TRUE(BuildSharedFilters(schema_, {&a, &b, &c}, *view_).empty());
  CheckKernelClass(*view_, {&a, &b, &c}, "no filter");
  CheckKernelClass(*view_, {&b}, "no filter, one member");
}

TEST_F(VectorizedDeterminismTest, KernelOneMemberClass) {
  const DimensionalQuery a = MakeQuery(
      schema_, 1, "XY'Z'",
      {{"Y", 0, {1, 3, 5, 7, 9}}, {"X", 1, {1, 3}}, {"Z", 1, {1, 2}}});
  CheckKernelClass(*view_, {&a}, "one member");
}

TEST_F(VectorizedDeterminismTest, KernelThirtyTwoMemberClass) {
  // kMaxClassQueries members, so the pass masks use bit 31. Each member
  // restricts one or two dimensions at varying levels.
  const char* const targets[] = {"X'Y'Z", "X''Z'", "Y'", "XY''", "Z'"};
  const AggOp aggs[] = {AggOp::kSum, AggOp::kMin, AggOp::kMax,
                        AggOp::kCount, AggOp::kAvg};
  const char* const dims[] = {"X", "Y", "Z"};
  std::vector<DimensionalQuery> queries;
  for (int i = 0; i < static_cast<int>(kMaxClassQueries); ++i) {
    std::vector<testing::PredSpec> preds;
    const int d = i % 3;
    const int level = (i / 3) % 2;
    const int32_t card = static_cast<int32_t>(
        schema_.dim(static_cast<size_t>(d)).cardinality(level));
    preds.push_back({dims[d], level, {i % card, (i + 5) % card}});
    if (i % 4 == 3) preds.push_back({dims[(d + 1) % 3], 0, {i % 12}});
    queries.push_back(
        MakeQuery(schema_, i + 1, targets[i % 5], preds, aggs[i % 5]));
  }
  std::vector<const DimensionalQuery*> hash;
  for (const DimensionalQuery& q : queries) hash.push_back(&q);
  ASSERT_GT(BruteForce(schema_, *table_, *hash.back()).num_rows(), 0u);
  CheckKernelClass(*view_, hash, "32 members");
}

TEST_F(VectorizedDeterminismTest, ViewBuildMatchesReferenceBuild) {
  std::vector<GroupBySpec> targets;
  for (const char* text : {"X'Y'Z", "X''Z'", "Y'"}) {
    targets.push_back(GroupBySpec::Parse(text, schema_).value());
  }
  const testing::ReferenceViews reference =
      ReferenceBuild(schema_, {view_.get()}, targets, /*clustered=*/false,
                     /*compressed=*/false);

  const auto check = [&](const ParallelPolicy& policy, const char* label) {
    ViewBuilder builder(schema_);
    builder.set_parallel_policy(policy);
    DiskModel disk;
    const auto built = builder.Build(*view_, targets, disk).value();
    ASSERT_EQ(built.size(), reference.tables.size()) << label;
    for (size_t i = 0; i < built.size(); ++i) {
      ExpectTablesBitIdentical(*built[i], *reference.tables[i], label);
    }
    EXPECT_EQ(disk.stats(), reference.io) << label;
  };
  for (const size_t batch_rows : kBatchSizes) {
    ParallelPolicy policy;
    policy.batch.batch_rows = batch_rows;
    check(policy, ("batch " + std::to_string(batch_rows)).c_str());
  }
  for (const size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    check(ParallelPolicy{&pool, threads, 0, BatchConfig()},
          (std::to_string(threads) + " threads").c_str());
  }
}

TEST_F(VectorizedDeterminismTest, RefreshMatchesReferenceBuild) {
  const GroupBySpec target = GroupBySpec::Parse("X'Y'Z", schema_).value();
  for (const size_t batch_rows : kBatchSizes) {
    SCOPED_TRACE("batch " + std::to_string(batch_rows));
    ViewBuilder builder(schema_);
    ParallelPolicy policy;
    policy.batch.batch_rows = batch_rows;
    builder.set_parallel_policy(policy);
    DiskModel build_disk;
    auto table = std::move(builder.Build(*view_, {target}, build_disk).value().front());
    const testing::ReferenceViews built =
        ReferenceBuild(schema_, {view_.get()}, {target}, false, false);
    ExpectTablesBitIdentical(*table, *built.tables[0], "Build");
    EXPECT_EQ(build_disk.stats(), built.io);

    MaterializedView view(schema_, target, table.get());
    DiskModel disk;
    auto refreshed = builder.Refresh(view, *view_, disk).table;
    const testing::ReferenceViews want =
        ReferenceBuild(schema_, {&view, view_.get()}, {target}, false, false);
    ExpectTablesBitIdentical(*refreshed, *want.tables[0], "Refresh");
    EXPECT_EQ(disk.stats(), want.io);
  }
}

TEST(VectorizedEngineTest, BatchAndThreadKnobsReproduceTheWorkload) {
  // End to end over the paper workload: every {1,4} threads x {1,7,1024}
  // batch rows run reproduces the 1-thread, 1024-row run bit for bit,
  // including every charged page count. The paper's views fold real
  // measures in another order than the base table does, so the brute-force
  // check is approximate.
  Engine engine(StarSchema::PaperTestSchema());
  PaperWorkload::Setup(engine, /*rows=*/30'000, /*seed=*/7);
  std::vector<DimensionalQuery> queries =
      PaperWorkload::MakeQueries(engine, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const GlobalPlan plan =
      engine.Optimize(queries, OptimizerKind::kGlobalGreedy);

  engine.ConsumeIoStats();
  std::map<int, QueryResult> reference;
  for (auto& r : engine.Execute(plan)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_TRUE(r.result.ApproxEquals(BruteForce(
        engine.schema(), engine.base_view()->table(), *r.query)))
        << "Q" << r.query->id() << " disagrees with the brute-force oracle";
    reference.emplace(r.query->id(), std::move(r.result));
  }
  const IoStats reference_stats = engine.ConsumeIoStats();

  for (const size_t threads : {1u, 4u}) {
    for (const size_t batch_rows : kBatchSizes) {
      engine.set_parallelism(threads);
      engine.set_batch_rows(batch_rows);
      for (auto& r : engine.Execute(plan)) {
        ASSERT_TRUE(r.ok()) << r.status.ToString();
        EXPECT_TRUE(BitIdentical(r.result, reference.at(r.query->id())))
            << "Q" << r.query->id() << " at parallelism " << threads
            << ", batch " << batch_rows;
      }
      EXPECT_EQ(engine.ConsumeIoStats(), reference_stats)
          << "parallelism " << threads << ", batch " << batch_rows
          << " charged different I/O — the 1998 modeled time would change";
    }
  }
}

}  // namespace
}  // namespace starshare
