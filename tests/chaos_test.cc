// Chaos coverage: the paper's nine-query workload under randomized (but
// seeded, hence replayable) fault schedules. The invariant under ANY
// schedule: a query that reports success returns exactly the right answer —
// bit-identical to the fault-free shared run when it survived on its
// planned path, bit-identical to the fact-table reference when it was
// recovered by the fallback — and a query that cannot be answered carries a
// typed Status. The process never aborts.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/fault_injector.h"
#include "core/paper_workload.h"
#include "exec/executor.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine(StarSchema::PaperTestSchema());
    PaperWorkload::Setup(*engine_, /*rows=*/30000, /*seed=*/7);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  void TearDown() override { FaultInjector::Instance().Disable(); }

  static Engine* engine_;
};

Engine* ChaosTest::engine_ = nullptr;

TEST_F(ChaosTest, SurvivorsAreBitIdenticalUnderSeededFaultSchedules) {
  std::vector<DimensionalQuery> queries = PaperWorkload::MakeQueries(
      *engine_, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const GlobalPlan plan =
      engine_->Optimize(queries, OptimizerKind::kGlobalGreedy);

  // Fault-free references, keyed by query id: the shared-plan result for
  // queries that survive on their planned path, and the fact-table hash
  // scan (exactly what Engine's fallback computes) for recovered ones.
  std::map<int, QueryResult> planned;
  for (auto& r : engine_->Execute(plan)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    planned.emplace(r.query->id(), std::move(r.result));
  }
  ASSERT_TRUE(engine_->last_execution_report().clean());
  std::map<int, QueryResult> fallback;
  Executor executor(engine_->schema(), engine_->disk());
  for (const auto& q : queries) {
    auto r = executor.ExecuteSingle(q, *engine_->base_view(),
                                    JoinMethod::kHashScan);
    ASSERT_TRUE(r.ok());
    fallback.emplace(q.id(), std::move(r.value()));
  }

  uint64_t total_fires = 0;
  size_t total_recovered = 0;
  for (const uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    FaultInjector::Instance().Enable(seed);
    FaultSpec bind;
    bind.probability = 0.25;
    FaultInjector::Instance().Arm("exec.bind_query", bind);
    FaultSpec bitmap;
    bitmap.probability = 0.25;
    FaultInjector::Instance().Arm("exec.build_bitmap", bitmap);
    FaultSpec device;
    device.probability = 0.002;  // rare: scans touch hundreds of pages
    FaultInjector::Instance().Arm("disk.read_seq", device);
    FaultSpec index_io;
    index_io.probability = 0.01;
    FaultInjector::Instance().Arm("disk.read_index", index_io);

    const auto results = engine_->Execute(plan);
    total_fires += FaultInjector::Instance().total_fires();
    FaultInjector::Instance().Disable();  // deterministic comparisons below

    ASSERT_EQ(results.size(), queries.size());
    const ExecutionReport& report = engine_->last_execution_report();
    size_t failed = 0;
    for (const auto& r : results) {
      const int id = r.query->id();
      if (!r.ok()) {
        ++failed;
        EXPECT_NE(r.status.code(), StatusCode::kOk);
        continue;
      }
      const QueryResult& want = r.degraded ? fallback.at(id) : planned.at(id);
      EXPECT_TRUE(BitIdentical(r.result, want))
          << "seed " << seed << " Q" << id
          << (r.degraded ? " (degraded)" : " (planned path)")
          << " diverged from its reference";
    }
    EXPECT_EQ(report.num_failed(), failed) << "seed " << seed;
    total_recovered += report.num_recovered();
  }

  // The schedules above must actually have exercised the machinery.
  EXPECT_GT(total_fires, 0u);
  EXPECT_GT(total_recovered, 0u);

  // And with the injector off again, the engine is back to pristine:
  // the same plan reproduces the fault-free run bit for bit.
  for (auto& r : engine_->Execute(plan)) {
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(BitIdentical(r.result, planned.at(r.query->id())));
  }
  EXPECT_TRUE(engine_->last_execution_report().clean());
}

TEST_F(ChaosTest, ReplaySameSeedSameOutcome) {
  std::vector<DimensionalQuery> queries =
      PaperWorkload::MakeQueries(*engine_, {1, 2, 3, 4, 5});
  const GlobalPlan plan =
      engine_->Optimize(queries, OptimizerKind::kGlobalGreedy);

  auto run = [&] {
    FaultInjector::Instance().Enable(31337);
    FaultSpec spec;
    spec.probability = 0.5;
    FaultInjector::Instance().Arm("exec.bind_query", spec);
    const auto results = engine_->Execute(plan);
    std::vector<std::pair<bool, bool>> shape;  // (ok, degraded) per query
    for (const auto& r : results) shape.emplace_back(r.ok(), r.degraded);
    FaultInjector::Instance().Disable();
    return shape;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // A 50% bind-fault storm over five queries must have hit someone —
  // either recovered (degraded) or failed outright (the fallback's bind
  // draws from the same schedule and can fault too).
  size_t touched = 0;
  for (const auto& [ok, deg] : first) touched += (!ok || deg) ? 1 : 0;
  EXPECT_GT(touched, 0u);
}

}  // namespace
}  // namespace starshare
