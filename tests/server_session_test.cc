// The query server's core contract: Submit/Await returns exactly what the
// synchronous batch Execute returns. Queries submitted in one batch reach
// one admission round, are planned by the same optimizer into the same
// shared classes, and produce BIT-identical results with EXACTLY equal
// modeled IoStats across {1, 4} threads x {1, 1024} batch rows. Handles
// survive engine destruction with typed outcomes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

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

std::unique_ptr<Engine> MakeEngine(size_t threads, size_t batch_rows,
                                   EngineConfig cfg = EngineConfig()) {
  cfg.parallelism = threads;
  cfg.batch.batch_rows = batch_rows;
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
  qs.push_back(MakeQuery(schema, 5, "Y''Z", {{"Z", 0, {2, 4, 6}}},
                         AggOp::kCount));
  qs.push_back(MakeQuery(schema, 6, "X''", {{"Y", 1, {2}}}, AggOp::kAvg));
  return qs;
}

// Batch-engine reference: results by query id plus the exact IoStats the
// run charged.
std::map<int, QueryResult> Reference(Engine& engine,
                                     const std::vector<DimensionalQuery>& qs,
                                     IoStats* stats) {
  engine.ConsumeIoStats();
  const GlobalPlan plan = engine.Optimize(qs, OptimizerKind::kGlobalGreedy);
  std::map<int, QueryResult> out;
  for (auto& r : engine.Execute(plan)) {
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    out.emplace(r.query->id(), std::move(r.result));
  }
  if (stats != nullptr) *stats = engine.ConsumeIoStats();
  return out;
}

TEST(ServerSessionTest, SubmitAwaitMatchesBatchExecute) {
  auto server_engine = MakeEngine(1, 1024);
  auto batch_engine = MakeEngine(1, 1024);
  const auto queries = Workload(server_engine->schema());
  const auto want = Reference(*batch_engine, queries, nullptr);

  for (const DimensionalQuery& q : queries) {
    QueryHandle handle = server_engine->Submit(q);
    const QueryOutcome& out = server_engine->Await(handle);
    ASSERT_TRUE(out.ok()) << out.status.ToString();
    EXPECT_FALSE(out.degraded);
    EXPECT_TRUE(BitIdentical(out.result, want.at(q.id())))
        << "Q" << q.id() << " diverged from batch Execute";
  }
  EXPECT_EQ(server_engine->server().completed(), queries.size());
}

TEST(ServerSessionTest, BatchSubmissionBitIdenticalExactIoAcrossMatrix) {
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (const size_t batch_rows : {size_t{1}, size_t{1024}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch_rows=" + std::to_string(batch_rows));
      auto server_engine = MakeEngine(threads, batch_rows);
      auto batch_engine = MakeEngine(threads, batch_rows);
      const auto queries = Workload(server_engine->schema());
      IoStats want_io;
      const auto want = Reference(*batch_engine, queries, &want_io);

      server_engine->ConsumeIoStats();
      Session session = server_engine->OpenSession();
      std::vector<QueryHandle> handles = session.SubmitBatch(queries);
      ASSERT_EQ(handles.size(), queries.size());
      for (size_t i = 0; i < handles.size(); ++i) {
        const QueryOutcome& out = handles[i].Await();
        ASSERT_TRUE(out.ok()) << out.status.ToString();
        EXPECT_FALSE(out.cache_hit);
        EXPECT_FALSE(out.attached_late);
        EXPECT_TRUE(BitIdentical(out.result, want.at(queries[i].id())))
            << "Q" << queries[i].id();
      }
      // One admission round == one batch plan: the modeled I/O must be
      // EXACTLY the batch run's, counter for counter.
      const IoStats got_io = server_engine->ConsumeIoStats();
      EXPECT_TRUE(got_io == want_io)
          << "server: " << got_io.ToString() << "\nbatch:  "
          << want_io.ToString();
    }
  }
}

TEST(ServerSessionTest, OnePageMorselSegmentsBitIdenticalExactIo) {
  // Every segment spans many one-page morsels at 4 threads, so each
  // morsel's chain must start at its own offset within the segment.
  auto batch_engine = MakeEngine(1, 1024);
  const auto queries = Workload(batch_engine->schema());
  IoStats want_io;
  const auto want = Reference(*batch_engine, queries, &want_io);

  EngineConfig cfg;
  cfg.morsel_rows = batch_engine->base_view()->table().rows_per_page();
  auto server_engine = MakeEngine(4, 1024, cfg);
  server_engine->ConsumeIoStats();
  Session session = server_engine->OpenSession();
  std::vector<QueryHandle> handles = session.SubmitBatch(queries);
  ASSERT_EQ(handles.size(), queries.size());
  for (size_t i = 0; i < handles.size(); ++i) {
    const QueryOutcome& out = handles[i].Await();
    ASSERT_TRUE(out.ok()) << out.status.ToString();
    EXPECT_TRUE(BitIdentical(out.result, want.at(queries[i].id())))
        << "Q" << queries[i].id();
  }
  const IoStats got_io = server_engine->ConsumeIoStats();
  EXPECT_TRUE(got_io == want_io) << "server: " << got_io.ToString()
                                 << "\nbatch:  " << want_io.ToString();
}

TEST(ServerSessionTest, RepeatSubmissionServedFromCacheWithZeroIo) {
  EngineConfig cfg;
  cfg.result_cache_entries = 8;
  auto engine = MakeEngine(1, 1024, cfg);
  const auto queries = Workload(engine->schema());
  const DimensionalQuery& q = queries[0];

  QueryHandle first = engine->Submit(q);
  const QueryOutcome cold = first.Await();
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cache_hit);

  engine->ConsumeIoStats();
  QueryHandle second = engine->Submit(q);
  const QueryOutcome& warm = second.Await();
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(BitIdentical(warm.result, cold.result));
  EXPECT_EQ(engine->ConsumeIoStats().TotalPagesRead(), 0u);
  EXPECT_EQ(engine->server().cache_hits(), 1u);
}

TEST(ServerSessionTest, ClosedSessionRefusesSubmissionTyped) {
  auto engine = MakeEngine(1, 1024);
  const auto queries = Workload(engine->schema());
  Session session = engine->OpenSession();
  session.Close();
  QueryHandle handle = session.Submit(queries[0]);
  const QueryOutcome& out = handle.Await();
  EXPECT_EQ(out.status.code(), StatusCode::kFailedPrecondition);

  // The default session stays open regardless.
  QueryHandle ok = engine->Submit(queries[1]);
  EXPECT_TRUE(ok.Await().ok());
}

TEST(ServerSessionTest, CloseDefaultOrUnknownSessionIsIgnored) {
  auto engine = MakeEngine(1, 1024);
  const auto queries = Workload(engine->schema());
  QueryServer& server = engine->server();
  server.CloseSession(0);      // the implicit default: always open
  server.CloseSession(12345);  // never opened
  EXPECT_TRUE(engine->Submit(queries[0]).Await().ok());

  Session session = engine->OpenSession();
  session.Close();
  session.Close();  // double-close: idempotent, no gauge imbalance
  EXPECT_EQ(session.Submit(queries[1]).Await().status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine->Submit(queries[2]).Await().ok());
}

TEST(ServerSessionTest, StopServerRefusesFurtherSubmissionsTyped) {
  auto engine = MakeEngine(1, 1024);
  const auto queries = Workload(engine->schema());
  EXPECT_TRUE(engine->Submit(queries[0]).Await().ok());
  engine->StopServer();
  engine->StopServer();  // idempotent
  QueryHandle handle = engine->Submit(queries[1]);
  EXPECT_EQ(handle.Await().status.code(), StatusCode::kShuttingDown);
}

// An append edits the views, statistics and indexes the controller thread
// reads, so it is refused while the server runs and allowed once it has
// stopped (run under TSan by scripts/verify.sh).
TEST(ServerSessionTest, AppendRefusedWhileServerRuns) {
  auto engine = MakeEngine(1, 1024);
  ASSERT_TRUE(engine->MaterializeView("X'Y'").ok());
  ASSERT_TRUE(engine->BuildIndexes("X'Y'", {"X"}).ok());
  const auto queries = Workload(engine->schema());
  QueryHandle handle = engine->Submit(queries[0]);
  EXPECT_EQ(engine->AppendFacts({.num_rows = 100, .seed = 5}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(handle.Await().ok());
  EXPECT_EQ(engine->base_view()->table().num_rows(), kRows);
  engine->StopServer();
  EXPECT_TRUE(engine->AppendFacts({.num_rows = 100, .seed = 5}).ok());
  EXPECT_EQ(engine->base_view()->table().num_rows(), kRows + 100);
}

// The UAF regression the typed ThreadPool shutdown exists for: destroying
// the Engine with queries still in flight must complete every handle with
// either its real result or kShuttingDown — never hang, never touch freed
// engine state (run under TSan by scripts/verify.sh).
TEST(ServerSessionTest, EngineDestructionWithInflightQueriesYieldsTyped) {
  for (int round = 0; round < 5; ++round) {
    auto engine = MakeEngine(4, 1024);
    const auto queries = Workload(engine->schema());
    std::vector<QueryHandle> handles;
    for (const auto& q : queries) handles.push_back(engine->Submit(q));
    engine.reset();  // races the controller mid-flight
    for (QueryHandle& h : handles) {
      const QueryOutcome& out = h.Await();
      EXPECT_TRUE(out.ok() || out.status.code() == StatusCode::kShuttingDown)
          << out.status.ToString();
    }
  }
}

}  // namespace
}  // namespace starshare
