// Fault injection against the morsel-parallel operators: the degradation
// contract must hold with workers in flight. A fault in one member's
// private phase fails that member alone (its siblings stay bit-identical
// to the fault-free run); a device fault latched by any worker during the
// shared pass fails every surviving member; the process never aborts.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/fault_injector.h"
#include "core/paper_workload.h"
#include "exec/operators/class_pipeline.h"
#include "parallel/thread_pool.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::MakeQuery;
using testing::SmallSchema;

class ParallelChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGenerator gen(schema_, {.num_rows = 40'000, .seed = 1234});
    table_ = gen.Generate("base");
    table_->set_id(1);
    view_ = std::make_unique<MaterializedView>(
        schema_, GroupBySpec::Base(schema_), table_.get());
    view_->ComputeStats(schema_);
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      DiskModel scratch;
      view_->BuildIndex(schema_, d, scratch);
    }
    queries_.push_back(MakeQuery(schema_, 1, "X'Y'Z", {{"X", 1, {0, 2}}}));
    queries_.push_back(MakeQuery(schema_, 2, "X''Y''Z'", {{"Y", 0, {1, 3}}}));
    queries_.push_back(MakeQuery(schema_, 3, "XY'Z'", {{"Z", 1, {0}}}));
    queries_.push_back(MakeQuery(schema_, 4, "X'Z'", {}));
    for (const auto& q : queries_) query_ptrs_.push_back(&q);
  }
  void TearDown() override { FaultInjector::Instance().Disable(); }

  // One shared class under `policy`.
  Result<SharedOutcome> RunClass(
      const std::vector<const DimensionalQuery*>& hash,
      const std::vector<const DimensionalQuery*>& index, bool probe,
      DiskModel& disk, const ParallelPolicy& policy) {
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

TEST_F(ParallelChaosTest, BindFaultIsolatesOneMemberUnderParallelism) {
  ThreadPool pool(4);
  ParallelPolicy policy{&pool, 4, 0, BatchConfig()};

  DiskModel clean_disk;
  auto clean = RunClass(query_ptrs_, {}, /*probe=*/false, clean_disk, policy);
  ASSERT_TRUE(clean.ok());

  FaultInjector::Instance().Enable(11);
  FaultSpec spec;
  spec.key = 3;  // only query 3's bind fails
  FaultInjector::Instance().Arm("exec.bind_query", spec);
  DiskModel disk;
  auto faulted =
      RunClass(query_ptrs_, {}, /*probe=*/false, disk, policy);
  FaultInjector::Instance().Disable();

  ASSERT_TRUE(faulted.ok());
  for (size_t i = 0; i < query_ptrs_.size(); ++i) {
    if (query_ptrs_[i]->id() == 3) {
      EXPECT_EQ(faulted->statuses[i].code(), StatusCode::kInternal);
      EXPECT_EQ(faulted->results[i].num_rows(), 0u);
    } else {
      ASSERT_TRUE(faulted->statuses[i].ok()) << "member " << i;
      EXPECT_TRUE(BitIdentical(faulted->results[i], clean->results[i]))
          << "sibling " << i << " was disturbed by Q3's private fault";
    }
  }
}

TEST_F(ParallelChaosTest, BitmapFaultIsolatesOneIndexMember) {
  ThreadPool pool(3);
  ParallelPolicy policy{&pool, 3, 0, BatchConfig()};
  std::vector<const DimensionalQuery*> hash = {query_ptrs_[1]};
  std::vector<const DimensionalQuery*> index = {query_ptrs_[0],
                                                query_ptrs_[2]};

  DiskModel clean_disk;
  auto clean = RunClass(hash, index, /*probe=*/false, clean_disk, policy);
  ASSERT_TRUE(clean.ok());

  FaultInjector::Instance().Enable(12);
  FaultSpec spec;
  spec.key = 1;  // query 1 is an index member here
  FaultInjector::Instance().Arm("exec.build_bitmap", spec);
  DiskModel disk;
  auto faulted =
      RunClass(hash, index, /*probe=*/false, disk, policy);
  FaultInjector::Instance().Disable();

  ASSERT_TRUE(faulted.ok());
  // Member order: hash (Q2), then index (Q1, Q3). Q1 fails, others hold.
  EXPECT_TRUE(faulted->statuses[0].ok());
  EXPECT_TRUE(BitIdentical(faulted->results[0], clean->results[0]));
  EXPECT_EQ(faulted->statuses[1].code(), StatusCode::kInternal);
  EXPECT_TRUE(faulted->statuses[2].ok());
  EXPECT_TRUE(BitIdentical(faulted->results[2], clean->results[2]));
}

TEST_F(ParallelChaosTest, MidScanDeviceFaultFailsEverySurvivorOnly) {
  ThreadPool pool(4);
  ParallelPolicy policy{&pool, 4, /*morsel_rows=*/table_->rows_per_page(),
                        BatchConfig()};

  FaultInjector::Instance().Enable(13);
  FaultSpec bind;
  bind.key = 2;  // Q2 already failed its private phase...
  FaultInjector::Instance().Arm("exec.bind_query", bind);
  FaultSpec device;
  device.countdown = 40;  // ...then a worker hits a bad page mid-scan
  FaultInjector::Instance().Arm("disk.read_seq", device);

  DiskModel disk;
  auto outcome =
      RunClass(query_ptrs_, {}, /*probe=*/false, disk, policy);
  const uint64_t device_fires = FaultInjector::Instance().fires("disk.read_seq");
  FaultInjector::Instance().Disable();

  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(device_fires, 1u);
  EXPECT_FALSE(disk.has_fault()) << "operator must consume the latched fault";
  for (size_t i = 0; i < query_ptrs_.size(); ++i) {
    ASSERT_FALSE(outcome->statuses[i].ok()) << "member " << i;
    if (query_ptrs_[i]->id() == 2) {
      // The private-phase failure is more precise and must be preserved,
      // not overwritten by the shared-pass fault.
      EXPECT_EQ(outcome->statuses[i].code(), StatusCode::kInternal);
    } else {
      EXPECT_EQ(outcome->statuses[i].code(), StatusCode::kUnavailable);
    }
  }
}

TEST_F(ParallelChaosTest, IndexProbeDeviceFaultFailsAllSurvivors) {
  ThreadPool pool(2);
  ParallelPolicy policy{&pool, 2, 0, BatchConfig()};
  std::vector<const DimensionalQuery*> members = {query_ptrs_[0],
                                                  query_ptrs_[2]};
  FaultInjector::Instance().Enable(14);
  FaultSpec device;
  device.countdown = 5;
  FaultInjector::Instance().Arm("disk.read_rand", device);
  DiskModel disk;
  auto outcome =
      RunClass({}, members, /*probe=*/true, disk, policy);
  FaultInjector::Instance().Disable();

  ASSERT_TRUE(outcome.ok());
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(outcome->statuses[i].code(), StatusCode::kUnavailable)
        << "member " << i;
  }
}

TEST(ParallelEngineChaosTest, SeededSchedulesNeverAbortAndSurvivorsAreRight) {
  EngineConfig config;
  config.parallelism = 4;
  Engine engine(StarSchema::PaperTestSchema(), config);
  PaperWorkload::Setup(engine, /*rows=*/30'000, /*seed=*/7);
  std::vector<DimensionalQuery> queries =
      PaperWorkload::MakeQueries(engine, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const GlobalPlan plan =
      engine.Optimize(queries, OptimizerKind::kGlobalGreedy);

  std::map<int, QueryResult> planned;
  for (auto& r : engine.Execute(plan)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    planned.emplace(r.query->id(), std::move(r.result));
  }
  std::map<int, QueryResult> fallback;
  Executor executor(engine.schema(), engine.disk());
  for (const auto& q : queries) {
    auto r = executor.ExecuteSingle(q, *engine.base_view(),
                                    JoinMethod::kHashScan);
    ASSERT_TRUE(r.ok());
    fallback.emplace(q.id(), std::move(r.value()));
  }

  uint64_t total_fires = 0;
  for (const uint64_t seed : {21u, 42u, 63u}) {
    FaultInjector::Instance().Enable(seed);
    FaultSpec bind;
    bind.probability = 0.2;
    FaultInjector::Instance().Arm("exec.bind_query", bind);
    FaultSpec device;
    device.probability = 0.003;
    FaultInjector::Instance().Arm("disk.read_seq", device);
    const auto results = engine.Execute(plan);
    total_fires += FaultInjector::Instance().total_fires();
    FaultInjector::Instance().Disable();

    ASSERT_EQ(results.size(), queries.size());
    for (const auto& r : results) {
      if (!r.ok()) continue;  // a failed query just carries its Status
      const QueryResult& want =
          r.degraded ? fallback.at(r.query->id()) : planned.at(r.query->id());
      EXPECT_TRUE(BitIdentical(r.result, want))
          << "seed " << seed << " Q" << r.query->id();
    }
  }
  EXPECT_GT(total_fires, 0u);  // the schedules really fired

  // Injector off: pristine parallel execution again.
  for (auto& r : engine.Execute(plan)) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(BitIdentical(r.result, planned.at(r.query->id())));
  }
}

}  // namespace
}  // namespace starshare
