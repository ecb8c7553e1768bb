// Chaos coverage for the query server: injected device faults mid-scan
// (every rider degrades through the fact-table fallback and still answers
// correctly), client disconnect mid-scan (the survivor is unaffected and
// the dead member's wraparound obligation vanishes), shutdown with queries
// in flight (typed kShuttingDown, no hang, no UAF — verify.sh runs this
// under TSan), and randomized seeded fault schedules with the usual
// invariant: every handle completes ok-or-typed, and ok means correct.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "core/engine.h"
#include "server/query_server.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::MakeQuery;
using testing::SmallSchema;

constexpr uint64_t kRows = 40'000;
constexpr uint64_t kSeed = 20260809;

struct HookSlot {
  std::function<void(uint64_t)> fn;
};

std::unique_ptr<Engine> MakeEngine(std::shared_ptr<HookSlot> slot) {
  EngineConfig cfg;
  cfg.parallelism = 1;
  if (slot != nullptr) {
    cfg.server.on_segment_boundary = [slot](uint64_t cursor) {
      if (slot->fn) slot->fn(cursor);
    };
  }
  auto engine = std::make_unique<Engine>(SmallSchema(), cfg);
  engine->LoadFactTable({.num_rows = kRows, .seed = kSeed});
  return engine;
}

std::vector<DimensionalQuery> Workload(const StarSchema& schema) {
  std::vector<DimensionalQuery> qs;
  qs.push_back(MakeQuery(schema, 1, "X'Y'Z", {{"X", 1, {0, 2}}}));
  qs.push_back(MakeQuery(schema, 2, "X''Y''Z'", {{"Y", 0, {1, 3, 5, 7}}}));
  qs.push_back(MakeQuery(schema, 3, "XY'Z'", {{"Z", 1, {0}}, {"X", 2, {1}}},
                         AggOp::kMin));
  qs.push_back(MakeQuery(schema, 4, "X'Z'", {}, AggOp::kMax));
  return qs;
}

QueryResult Standalone(const DimensionalQuery& q) {
  auto engine = MakeEngine(nullptr);
  std::vector<DimensionalQuery> one{q};
  auto results =
      engine->Execute(engine->Optimize(one, OptimizerKind::kGlobalGreedy));
  EXPECT_TRUE(results[0].ok()) << results[0].status.ToString();
  return std::move(results[0].result);
}

class ServerChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Disable(); }
};

TEST_F(ServerChaosTest, DeviceFaultMidScanDegradesEveryRiderCorrectly) {
  auto engine = MakeEngine(nullptr);
  const auto queries = Workload(engine->schema());
  std::map<int, QueryResult> want;
  for (const auto& q : queries) want.emplace(q.id(), Standalone(q));

  // The shared scan dies partway through its revolution; every member
  // degrades through the standalone fact-table fallback, which succeeds
  // (the countdown spec fires exactly once).
  FaultInjector::Instance().Enable(/*seed=*/7);
  FaultSpec fault;
  fault.countdown = 10;
  FaultInjector::Instance().Arm("disk.read_seq", fault);

  Session session = engine->OpenSession();
  std::vector<QueryHandle> handles = session.SubmitBatch(queries);
  for (size_t i = 0; i < handles.size(); ++i) {
    const QueryOutcome& out = handles[i].Await();
    ASSERT_TRUE(out.ok()) << out.status.ToString();
    EXPECT_TRUE(out.degraded) << "Q" << queries[i].id();
    EXPECT_TRUE(BitIdentical(out.result, want.at(queries[i].id())))
        << "Q" << queries[i].id();
  }
  EXPECT_EQ(FaultInjector::Instance().fires("disk.read_seq"), 1u);
}

TEST_F(ServerChaosTest, BindFaultAtAttachFallsBackThatMemberOnly) {
  auto engine = MakeEngine(nullptr);
  const auto queries = Workload(engine->schema());

  FaultInjector::Instance().Enable(/*seed=*/11);
  FaultSpec bind;
  bind.key = queries[1].id();  // only Q2's bind fails
  bind.max_fires = 1;          // ... and its fallback's re-bind succeeds
  FaultInjector::Instance().Arm("exec.bind_query", bind);

  Session session = engine->OpenSession();
  std::vector<QueryHandle> handles = session.SubmitBatch(queries);
  std::vector<QueryOutcome> outs;
  for (auto& h : handles) outs.push_back(h.Await());
  FaultInjector::Instance().Disable();

  for (size_t i = 0; i < outs.size(); ++i) {
    ASSERT_TRUE(outs[i].ok()) << outs[i].status.ToString();
    EXPECT_EQ(outs[i].degraded, queries[i].id() == queries[1].id());
    EXPECT_TRUE(BitIdentical(outs[i].result, Standalone(queries[i])));
  }
}

TEST_F(ServerChaosTest, ClientDisconnectMidScanDropsWrapObligation) {
  auto slot = std::make_shared<HookSlot>();
  auto engine = MakeEngine(slot);
  const auto queries = Workload(engine->schema());

  Session victim = engine->OpenSession();
  QueryHandle late;
  int boundaries = 0;
  slot->fn = [&](uint64_t) {
    ++boundaries;
    if (boundaries == 1) late = victim.Submit(queries[1]);
    // Disconnect two boundaries after attaching: the member is detached at
    // this boundary, mid-revolution.
    if (boundaries == 3) victim.Close();
  };

  engine->ConsumeIoStats();
  QueryHandle survivor = engine->Submit(queries[0]);
  const QueryOutcome& out1 = survivor.Await();
  const QueryOutcome& out2 = late.Await();

  ASSERT_TRUE(out1.ok()) << out1.status.ToString();
  EXPECT_TRUE(BitIdentical(out1.result, Standalone(queries[0])));
  EXPECT_EQ(out2.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine->server().cancelled(), 1u);

  // The dead member's wraparound prefix is never driven: the scan ends at
  // the survivor's completion, exactly one revolution of pages.
  const Table& base = engine->base_view()->table();
  EXPECT_EQ(engine->ConsumeIoStats().seq_pages_read, base.num_pages());
}

TEST_F(ServerChaosTest, StopWithQueriesInFlightCompletesTyped) {
  auto slot = std::make_shared<HookSlot>();
  auto engine = MakeEngine(slot);
  const auto queries = Workload(engine->schema());

  // The hook parks the controller at the first segment boundary, signals
  // the test, and spins until StopServer is called from the main thread —
  // guaranteeing the stop lands while the scan is genuinely mid-flight.
  // Resolve the server up front: Engine::server() takes a lock that
  // StopServer holds while joining, so the hook must not call it.
  QueryServer& srv = engine->server();
  std::mutex mu;
  std::condition_variable cv;
  bool mid_flight = false;
  slot->fn = [&](uint64_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      mid_flight = true;
    }
    cv.notify_one();
    while (!srv.stop_requested()) {
      std::this_thread::yield();
    }
  };

  Session session = engine->OpenSession();
  std::vector<QueryHandle> handles =
      session.SubmitBatch({queries[0], queries[1]});
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return mid_flight; });
  }
  engine->StopServer();
  for (auto& h : handles) {
    EXPECT_EQ(h.Await().status.code(), StatusCode::kShuttingDown);
  }
}

TEST_F(ServerChaosTest, RandomizedFaultSchedulesNeverHangOrCorrupt) {
  const auto probe_queries = Workload(SmallSchema());
  std::map<int, QueryResult> want;
  for (const auto& q : probe_queries) want.emplace(q.id(), Standalone(q));

  for (const uint64_t seed : {101u, 202u, 303u}) {
    auto engine = MakeEngine(nullptr);
    const auto queries = Workload(engine->schema());

    FaultInjector::Instance().Enable(seed);
    FaultSpec flaky;
    flaky.probability = 0.02;
    FaultInjector::Instance().Arm("disk.read_seq", flaky);
    FaultInjector::Instance().Arm("exec.bind_query", flaky);

    Session session = engine->OpenSession();
    std::vector<QueryHandle> handles;
    for (int round = 0; round < 3; ++round) {
      for (auto& h : session.SubmitBatch(queries)) {
        handles.push_back(std::move(h));
      }
    }
    size_t ok_count = 0;
    for (size_t i = 0; i < handles.size(); ++i) {
      const QueryOutcome& out = handles[i].Await();
      const int id = queries[i % queries.size()].id();
      if (out.ok()) {
        ++ok_count;
        EXPECT_TRUE(BitIdentical(out.result, want.at(id)))
            << "seed " << seed << " Q" << id;
      } else {
        // A fallback that also faulted surfaces its typed error: the
        // injected device fault (kUnavailable) or bind fault (kInternal).
        EXPECT_TRUE(out.status.code() == StatusCode::kUnavailable ||
                    out.status.code() == StatusCode::kInternal)
            << out.status.ToString();
      }
    }
    FaultInjector::Instance().Disable();

    // The server stays serviceable after the storm.
    QueryHandle clean = session.Submit(queries[0]);
    const QueryOutcome& out = clean.Await();
    ASSERT_TRUE(out.ok()) << "seed " << seed << ": " << out.status.ToString();
    EXPECT_TRUE(BitIdentical(out.result, want.at(queries[0].id())));
    EXPECT_GT(ok_count, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace starshare
