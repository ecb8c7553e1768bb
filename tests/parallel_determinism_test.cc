// The parallel subsystem's core promise: every morsel-parallel pass is
// BIT-identical to its serial twin — same result doubles, same charged
// IoStats — for any thread count and any morsel size. Nothing here uses
// tolerances: the ordered match-buffer merge replays the serial
// floating-point fold exactly, so equality is byte equality.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/paper_workload.h"
#include "cube/view_builder.h"
#include "exec/operators/class_pipeline.h"
#include "parallel/thread_pool.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::MakeQuery;
using testing::SmallSchema;

void ExpectOutcomesBitIdentical(const SharedOutcome& serial,
                                const SharedOutcome& parallel,
                                const char* label) {
  ASSERT_EQ(serial.results.size(), parallel.results.size()) << label;
  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.statuses[i].code(), parallel.statuses[i].code())
        << label << " member " << i;
    EXPECT_TRUE(BitIdentical(serial.results[i], parallel.results[i]))
        << label << " member " << i << " diverged from serial";
  }
}

// A mixed bag of queries over SmallSchema: different targets, predicates
// at different levels, and every aggregate kind, so key packing, hierarchy
// map-up and the fold order are all exercised.
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

class ParallelDeterminismTest : public ::testing::Test {
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

  // One shared class under `policy` (serial by default).
  Result<SharedOutcome> RunClass(
      const std::vector<const DimensionalQuery*>& hash,
      const std::vector<const DimensionalQuery*>& index, bool probe,
      DiskModel& disk, const ParallelPolicy& policy = ParallelPolicy()) {
    SharedClassRequest req;
    req.schema = &schema_;
    req.hash_queries = hash;
    req.index_queries = index;
    req.view = view_.get();
    req.disk = &disk;
    req.policy = policy;
    req.probe = probe;
    return ExecuteSharedClass(req);
  }

  StarSchema schema_ = SmallSchema();
  std::unique_ptr<Table> table_;
  std::unique_ptr<MaterializedView> view_;
  std::vector<DimensionalQuery> queries_;
  std::vector<const DimensionalQuery*> query_ptrs_;
};

TEST_F(ParallelDeterminismTest, SharedScanBitIdenticalAtEveryThreadCount) {
  DiskModel serial_disk;
  auto serial = RunClass(query_ptrs_, {}, /*probe=*/false, serial_disk);
  ASSERT_TRUE(serial.ok());

  for (const size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    ParallelPolicy policy{&pool, threads, 0, BatchConfig()};
    DiskModel disk;
    auto parallel = RunClass(query_ptrs_, {}, /*probe=*/false, disk, policy);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    ExpectOutcomesBitIdentical(*serial, *parallel, "scan");
    EXPECT_EQ(disk.stats(), serial_disk.stats())
        << threads << "-thread scan charged different I/O than serial";
  }
}

TEST_F(ParallelDeterminismTest, SharedIndexBitIdenticalAtEveryThreadCount) {
  // The selective members (the kind the optimizer routes to the index
  // operator): predicates on indexed dimensions.
  std::vector<const DimensionalQuery*> members = {
      query_ptrs_[0], query_ptrs_[2], query_ptrs_[4]};

  DiskModel serial_disk;
  auto serial = RunClass({}, members, /*probe=*/true, serial_disk);
  ASSERT_TRUE(serial.ok());

  for (const size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    ParallelPolicy policy{&pool, threads, 0, BatchConfig()};
    DiskModel disk;
    auto parallel = RunClass({}, members, /*probe=*/true, disk, policy);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    ExpectOutcomesBitIdentical(*serial, *parallel, "index");
    EXPECT_EQ(disk.stats(), serial_disk.stats())
        << threads << "-thread index join charged different I/O than serial";
  }
}

TEST_F(ParallelDeterminismTest, SharedHybridBitIdenticalAtEveryThreadCount) {
  std::vector<const DimensionalQuery*> hash = {query_ptrs_[1], query_ptrs_[3],
                                               query_ptrs_[5]};
  std::vector<const DimensionalQuery*> index = {query_ptrs_[0],
                                                query_ptrs_[4]};

  DiskModel serial_disk;
  auto serial = RunClass(hash, index, /*probe=*/false, serial_disk);
  ASSERT_TRUE(serial.ok());

  for (const size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    ParallelPolicy policy{&pool, threads, 0, BatchConfig()};
    DiskModel disk;
    auto parallel = RunClass(hash, index, /*probe=*/false, disk, policy);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    ExpectOutcomesBitIdentical(*serial, *parallel, "hybrid");
    EXPECT_EQ(disk.stats(), serial_disk.stats())
        << threads << "-thread hybrid charged different I/O than serial";
  }
}

TEST_F(ParallelDeterminismTest, TinyMorselsChangeNothing) {
  // One-page morsels maximize scheduling freedom (hundreds of morsels over
  // 8 workers): the ordered merge must still reproduce the serial bits.
  DiskModel serial_disk;
  auto serial = RunClass(query_ptrs_, {}, /*probe=*/false, serial_disk);
  ASSERT_TRUE(serial.ok());

  // A set size that is not a whole number of pages (one page + 1 row, and
  // 1,000 rows) rounds up to whole pages, so no page is charged twice.
  ThreadPool pool(8);
  const uint64_t rpp = table_->rows_per_page();
  for (const uint64_t morsel_rows : {rpp, rpp + 1, uint64_t{1000}}) {
    SCOPED_TRACE("morsel_rows=" + std::to_string(morsel_rows));
    ParallelPolicy policy{&pool, 8, morsel_rows, BatchConfig()};
    DiskModel disk;
    auto parallel = RunClass(query_ptrs_, {}, /*probe=*/false, disk, policy);
    ASSERT_TRUE(parallel.ok());
    ExpectOutcomesBitIdentical(*serial, *parallel, "tiny-morsel scan");
    EXPECT_EQ(disk.stats(), serial_disk.stats());
  }
}

TEST_F(ParallelDeterminismTest, OversizedClassIsTypedErrorNotAbort) {
  std::vector<const DimensionalQuery*> too_many(kMaxClassQueries + 1,
                                                query_ptrs_[0]);
  ThreadPool pool(2);
  ParallelPolicy policy{&pool, 2, 0, BatchConfig()};
  DiskModel disk;
  auto scan = RunClass(too_many, {}, /*probe=*/false, disk, policy);
  EXPECT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
  auto index = RunClass({}, too_many, /*probe=*/true, disk, policy);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelEngineTest, ParallelismKnobReproducesSerialPaperWorkload) {
  Engine engine(StarSchema::PaperTestSchema());
  PaperWorkload::Setup(engine, /*rows=*/30'000, /*seed=*/7);
  std::vector<DimensionalQuery> queries =
      PaperWorkload::MakeQueries(engine, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const GlobalPlan plan = engine.Optimize(queries, OptimizerKind::kGlobalGreedy);

  engine.ConsumeIoStats();
  std::map<int, QueryResult> serial;
  for (auto& r : engine.Execute(plan)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    serial.emplace(r.query->id(), std::move(r.result));
  }
  const IoStats serial_stats = engine.ConsumeIoStats();

  for (const size_t threads : {2u, 3u, 8u}) {
    engine.set_parallelism(threads);
    ASSERT_EQ(engine.parallelism(), threads);
    for (auto& r : engine.Execute(plan)) {
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_TRUE(BitIdentical(r.result, serial.at(r.query->id())))
          << "Q" << r.query->id() << " at parallelism " << threads;
    }
    EXPECT_EQ(engine.ConsumeIoStats(), serial_stats)
        << "parallelism " << threads
        << " charged different I/O than serial — the 1998 cost model would "
           "report a different modeled time";
  }
  engine.set_parallelism(1);  // back to the paper configuration
}

TEST(ParallelEngineTest, ParallelViewBuildMatchesSerialBuild) {
  StarSchema schema = SmallSchema();
  DataGenerator gen(schema, {.num_rows = 40'000, .seed = 99});
  auto base_table = gen.Generate("base");
  MaterializedView base(schema, GroupBySpec::Base(schema), base_table.get());
  ViewBuilder builder(schema);
  std::vector<GroupBySpec> targets;
  for (const char* text : {"X'Y'Z", "X''Z'", "Y'"}) {
    targets.push_back(GroupBySpec::Parse(text, schema).value());
  }

  DiskModel serial_disk;
  const auto serial = builder.Build(base, targets, serial_disk).value();

  ThreadPool pool(4);
  builder.set_parallel_policy(ParallelPolicy{&pool, 4, 0, BatchConfig()});
  DiskModel parallel_disk;
  const auto parallel = builder.Build(base, targets, parallel_disk).value();

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(parallel[i]->num_rows(), serial[i]->num_rows()) << i;
    for (uint64_t r = 0; r < serial[i]->num_rows(); ++r) {
      for (size_t c = 0; c < serial[i]->num_key_columns(); ++c) {
        ASSERT_EQ(parallel[i]->key(c, r), serial[i]->key(c, r)) << i;
      }
      const double a = parallel[i]->measure(r), b = serial[i]->measure(r);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "view " << i << " row " << r << " measure differs";
    }
  }
  EXPECT_EQ(parallel_disk.stats(), serial_disk.stats());
}

}  // namespace
}  // namespace starshare
