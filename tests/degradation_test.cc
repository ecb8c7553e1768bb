// Graceful per-query degradation — the PR's acceptance scenario: with a
// fault injected into one member of a 4-query shared class, the other three
// members return bit-identical results, the failed query succeeds via the
// fact-table fallback, and if the fallback also faults the entry carries a
// typed Status. The process never aborts.

#include <gtest/gtest.h>

#include <vector>

#include "common/fault_injector.h"
#include "core/engine.h"
#include "plan/plan.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::BruteForce;
using testing::MakeQuery;
using testing::SmallSchema;

class DegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(SmallSchema());
    engine_->LoadFactTable({.num_rows = 8000, .seed = 177});
    queries_.push_back(
        MakeQuery(engine_->schema(), 1, "X'Y''", {{"X", 2, {0}}}));
    queries_.push_back(
        MakeQuery(engine_->schema(), 2, "X''Z'", {{"Z", 1, {0, 1}}}));
    queries_.push_back(MakeQuery(engine_->schema(), 3, "Y'Z'", {}));
    queries_.push_back(
        MakeQuery(engine_->schema(), 4, "X'Y'Z'", {{"Y", 2, {1}}}));
  }
  void TearDown() override { FaultInjector::Instance().Disable(); }

  // One shared class over the base fact table with all four queries as
  // hash members — the §3 shared-scan operator end to end.
  GlobalPlan FourMemberClass() const {
    GlobalPlan plan;
    ClassPlan cls;
    cls.base = engine_->base_view();
    for (const auto& q : queries_) {
      LocalPlan member;
      member.query = &q;
      cls.members.push_back(member);
    }
    plan.classes.push_back(cls);
    return plan;
  }

  std::unique_ptr<Engine> engine_;
  std::vector<DimensionalQuery> queries_;
};

TEST_F(DegradationTest, OneMemberFaultsOthersUnaffectedFallbackRecovers) {
  const GlobalPlan plan = FourMemberClass();
  const auto baseline = engine_->Execute(plan);
  ASSERT_EQ(baseline.size(), 4u);
  for (const auto& r : baseline) ASSERT_TRUE(r.ok());
  ASSERT_TRUE(engine_->last_execution_report().clean());

  // Fail exactly query 2's private bind phase inside the shared operator.
  FaultInjector::Instance().Enable(5);
  FaultSpec spec;
  spec.key = 2;
  spec.countdown = 1;
  FaultInjector::Instance().Arm("exec.bind_query", spec);

  const auto results = engine_->Execute(plan);
  ASSERT_EQ(results.size(), 4u);
  ASSERT_EQ(FaultInjector::Instance().total_fires(), 1u);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status.ToString();
    if (results[i].query->id() == 2) {
      // Recovered via the fact-table fallback — correct, and flagged.
      EXPECT_TRUE(results[i].degraded);
      EXPECT_TRUE(results[i].result.ApproxEquals(
          BruteForce(engine_->schema(), engine_->base_view()->table(),
                     *results[i].query)));
    } else {
      // The surviving members took the untouched shared path.
      EXPECT_FALSE(results[i].degraded);
      EXPECT_TRUE(BitIdentical(results[i].result, baseline[i].result))
          << "survivor Q" << results[i].query->id() << " diverged";
    }
  }

  const ExecutionReport& report = engine_->last_execution_report();
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].query_id, 2);
  EXPECT_TRUE(report.events[0].recovered);
  EXPECT_EQ(report.num_recovered(), 1u);
  EXPECT_EQ(report.num_failed(), 0u);
}

TEST_F(DegradationTest, FallbackAlsoFaultingYieldsTypedStatusNotAbort) {
  const GlobalPlan plan = FourMemberClass();
  const auto baseline = engine_->Execute(plan);

  // probability 1.0 on query 3's bind: the shared attempt AND the
  // fact-table fallback both fault.
  FaultInjector::Instance().Enable(5);
  FaultSpec spec;
  spec.key = 3;
  spec.probability = 1.0;
  FaultInjector::Instance().Arm("exec.bind_query", spec);

  const auto results = engine_->Execute(plan);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    if (r.query->id() == 3) {
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.status.code(), StatusCode::kInternal);
      EXPECT_FALSE(r.degraded);
      EXPECT_NE(r.status.message().find("fallback also failed"),
                std::string::npos)
          << r.status.ToString();
    } else {
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(BitIdentical(
          r.result, baseline[static_cast<size_t>(r.query->id() - 1)].result));
    }
  }

  const ExecutionReport& report = engine_->last_execution_report();
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_FALSE(report.events[0].recovered);
  EXPECT_FALSE(report.events[0].fallback_error.ok());
  EXPECT_EQ(report.num_failed(), 1u);
}

TEST_F(DegradationTest, SharedScanDeviceFaultFailsClassThenAllRecover) {
  const GlobalPlan plan = FourMemberClass();
  const auto baseline = engine_->Execute(plan);

  // A device fault during the shared scan poisons every live member; each
  // is then recovered individually from the fact table (the fault is a
  // one-shot, so the fallback scans run clean).
  FaultInjector::Instance().Enable(5);
  FaultSpec spec;
  spec.countdown = 1;
  FaultInjector::Instance().Arm("disk.read_seq", spec);

  const auto results = engine_->Execute(plan);
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status.ToString();
    EXPECT_TRUE(results[i].degraded);
    EXPECT_TRUE(results[i].result.ApproxEquals(BruteForce(
        engine_->schema(), engine_->base_view()->table(),
        *results[i].query)));
  }
  EXPECT_EQ(engine_->last_execution_report().num_recovered(), 4u);
}

TEST_F(DegradationTest, IndexMemberFaultDegradesOnlyThatMember) {
  // A hybrid class: three hash members and one index member whose bitmap
  // build faults. Only the index member should degrade.
  ASSERT_TRUE(engine_->BuildIndexes("XYZ", {"X", "Y", "Z"}).ok());
  GlobalPlan plan;
  ClassPlan cls;
  cls.base = engine_->base_view();
  for (size_t i = 0; i < queries_.size(); ++i) {
    LocalPlan member;
    member.query = &queries_[i];
    member.method =
        queries_[i].id() == 4 ? JoinMethod::kIndexProbe : JoinMethod::kHashScan;
    cls.members.push_back(member);
  }
  plan.classes.push_back(cls);

  const auto baseline = engine_->Execute(plan);
  for (const auto& r : baseline) ASSERT_TRUE(r.ok());

  FaultInjector::Instance().Enable(5);
  FaultSpec spec;
  spec.key = 4;
  spec.countdown = 1;
  FaultInjector::Instance().Arm("exec.build_bitmap", spec);

  const auto results = engine_->Execute(plan);
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status.ToString();
    if (results[i].query->id() == 4) {
      EXPECT_TRUE(results[i].degraded);
      EXPECT_TRUE(results[i].result.ApproxEquals(BruteForce(
          engine_->schema(), engine_->base_view()->table(),
          *results[i].query)));
    } else {
      EXPECT_FALSE(results[i].degraded);
      EXPECT_TRUE(BitIdentical(results[i].result, baseline[i].result));
    }
  }
}

}  // namespace
}  // namespace starshare
