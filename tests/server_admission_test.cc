// Admission-control edge cases: late attachment at a pinned cursor (with
// the exact wraparound I/O arithmetic), attachment exactly at the
// wraparound boundary, two queries racing to open the same class, the
// cost-model join-or-open decision itself, and kResourceExhausted denial
// when a query cannot fit the memory budget.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "server/admission.h"
#include "server/query_server.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::MakeQuery;
using testing::SmallSchema;

constexpr uint64_t kRows = 40'000;
constexpr uint64_t kSeed = 20260809;

// The boundary hook is installed at Engine construction but tests need to
// swap behavior per phase, so it indirects through this slot. It only ever
// runs on the controller thread.
struct HookSlot {
  std::function<void(uint64_t)> fn;
};

std::unique_ptr<Engine> MakeEngine(std::shared_ptr<HookSlot> slot,
                                   EngineConfig cfg = EngineConfig()) {
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
  qs.push_back(MakeQuery(schema, 5, "Y''Z", {{"Z", 0, {2, 4, 6}}},
                         AggOp::kCount));
  qs.push_back(MakeQuery(schema, 6, "X''", {{"Y", 1, {2}}}, AggOp::kAvg));
  return qs;
}

// Standalone single-query reference on a twin engine.
QueryResult Standalone(const DimensionalQuery& q) {
  auto engine = MakeEngine(nullptr);
  std::vector<DimensionalQuery> one{q};
  auto results =
      engine->Execute(engine->Optimize(one, OptimizerKind::kGlobalGreedy));
  EXPECT_TRUE(results[0].ok()) << results[0].status.ToString();
  return std::move(results[0].result);
}

// Q1 opens a scan and Q2 attaches late at the second segment boundary;
// both must equal their standalone runs and the I/O is one revolution plus
// the re-read prefix. `cfg` picks the scan's parallelism and morsel size.
void CheckLateAttach(const EngineConfig& cfg) {
  auto slot = std::make_shared<HookSlot>();
  auto engine = MakeEngine(slot, cfg);
  const auto queries = Workload(engine->schema());

  QueryHandle late;
  uint64_t attach_at = 0;
  int boundaries = 0;
  slot->fn = [&](uint64_t cursor) {
    // Submit Q2 from the second segment boundary: the admission round that
    // runs right after this hook attaches it at exactly this cursor.
    if (++boundaries == 2) {
      attach_at = cursor;
      late = engine->server().Submit(0, queries[1]);
    }
  };

  engine->ConsumeIoStats();
  QueryHandle first = engine->Submit(queries[0]);
  const QueryOutcome& out1 = first.Await();
  const QueryOutcome& out2 = late.Await();
  ASSERT_TRUE(out1.ok()) << out1.status.ToString();
  ASSERT_TRUE(out2.ok()) << out2.status.ToString();

  EXPECT_FALSE(out1.attached_late);
  EXPECT_TRUE(out2.attached_late);
  ASSERT_GT(attach_at, 0u);
  EXPECT_EQ(out2.attach_cursor, attach_at);
  EXPECT_EQ(engine->server().attached(), 1u);
  EXPECT_EQ(engine->server().classes_opened(), 1u);

  // Bit-identity at an arbitrary attachment point (the wraparound
  // invariant: buffered [a, N) replayed after the folded [0, a)).
  EXPECT_TRUE(BitIdentical(out1.result, Standalone(queries[0])));
  EXPECT_TRUE(BitIdentical(out2.result, Standalone(queries[1])));

  // Exact I/O arithmetic: one full revolution for Q1 plus the re-read
  // prefix [0, attach_at) for Q2's wraparound — nothing else.
  const Table& base = engine->base_view()->table();
  const IoStats io = engine->ConsumeIoStats();
  EXPECT_EQ(io.seq_pages_read,
            base.num_pages() + attach_at / base.rows_per_page());
  EXPECT_EQ(io.rand_pages_read, 0u);
  EXPECT_EQ(io.index_pages_read, 0u);
}

TEST(ServerAdmissionTest, LateAttachIsBitIdenticalAndChargesWrapPrefix) {
  CheckLateAttach(EngineConfig());
}

TEST(ServerAdmissionTest, LateAttachOnOnePageMorselsAtFourThreads) {
  // Every segment spans many morsels, each driven by its own chain.
  EngineConfig cfg;
  cfg.parallelism = 4;
  cfg.morsel_rows = MakeEngine(nullptr)->base_view()->table().rows_per_page();
  CheckLateAttach(cfg);
}

TEST(ServerAdmissionTest, AttachExactlyAtWraparoundBoundary) {
  auto slot = std::make_shared<HookSlot>();
  auto engine = MakeEngine(slot);
  const auto queries = Workload(engine->schema());

  QueryHandle mid, at_wrap;
  int boundaries = 0;
  bool submitted_at_wrap = false;
  slot->fn = [&](uint64_t cursor) {
    ++boundaries;
    if (boundaries == 2) {
      // Keeps the run alive past Q1's completion so the wrap boundary is
      // still attachable.
      mid = engine->server().Submit(0, queries[1]);
    }
    if (cursor == 0 && !submitted_at_wrap) {
      // The cursor has wrapped to row 0: attaching here means a full fresh
      // revolution — the degenerate late attach.
      submitted_at_wrap = true;
      at_wrap = engine->server().Submit(0, queries[2]);
    }
  };

  engine->ConsumeIoStats();
  QueryHandle first = engine->Submit(queries[0]);
  ASSERT_TRUE(first.Await().ok());
  ASSERT_TRUE(mid.Await().ok());
  const QueryOutcome& wrap_out = at_wrap.Await();
  ASSERT_TRUE(wrap_out.ok()) << wrap_out.status.ToString();

  // Attached (not a fresh class), at cursor 0, after at least one wrap.
  EXPECT_TRUE(wrap_out.attached_late);
  EXPECT_EQ(wrap_out.attach_cursor, 0u);
  EXPECT_EQ(engine->server().classes_opened(), 1u);
  EXPECT_EQ(engine->server().attached(), 2u);
  EXPECT_TRUE(BitIdentical(wrap_out.result, Standalone(queries[2])));

  // Revolution 1 serves Q1; revolution 2 serves the wrap-attached member
  // in full (and the mid member's prefix rides inside it): 2N pages exact.
  const Table& base = engine->base_view()->table();
  EXPECT_EQ(engine->ConsumeIoStats().seq_pages_read, 2 * base.num_pages());
}

TEST(ServerAdmissionTest, SecondQueryJoinsInsteadOfOpeningOwnClass) {
  auto slot = std::make_shared<HookSlot>();
  auto engine = MakeEngine(slot);
  const auto queries = Workload(engine->schema());

  // The race of "two queries both want this class": the second arrives
  // while the first's scan is mid-flight. Resolution must be one opened
  // class and one attachment, never two scans.
  QueryHandle second;
  int boundaries = 0;
  slot->fn = [&](uint64_t) {
    if (++boundaries == 1) second = engine->server().Submit(0, queries[3]);
  };
  QueryHandle first = engine->Submit(queries[0]);
  ASSERT_TRUE(first.Await().ok());
  ASSERT_TRUE(second.Await().ok());
  EXPECT_EQ(engine->server().classes_opened(), 1u);
  EXPECT_EQ(engine->server().attached(), 1u);
  EXPECT_TRUE(BitIdentical(second.Await().result, Standalone(queries[3])));
}

// Concurrent sessions hammering Submit — duplicate query ids across
// sessions land in one admission round and must be planned in separate
// waves, every result bit-identical, accounting closed. TSan-sensitive.
TEST(ServerAdmissionTest, ConcurrentSessionsWithDuplicateIdsAllComplete) {
  auto engine = MakeEngine(nullptr);
  const auto queries = Workload(engine->schema());
  std::map<int, QueryResult> want;
  for (const auto& q : queries) want.emplace(q.id(), Standalone(q));

  constexpr int kThreads = 4;
  std::vector<std::vector<QueryHandle>> handles(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Session session = engine->OpenSession();
      for (const auto& q : queries) {
        handles[t].push_back(session.Submit(q));
      }
    });
  }
  for (auto& c : clients) c.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < handles[t].size(); ++i) {
      const QueryOutcome& out = handles[t][i].Await();
      ASSERT_TRUE(out.ok()) << out.status.ToString();
      EXPECT_TRUE(BitIdentical(out.result, want.at(queries[i].id())))
          << "thread " << t << " Q" << queries[i].id();
    }
  }
  const uint64_t total = kThreads * queries.size();
  EXPECT_EQ(engine->server().submitted(), total);
  EXPECT_EQ(engine->server().completed(), total);
  EXPECT_EQ(engine->server().admitted(), total);
}

// Starvation guard: once a non-attachable class job (here an index-probe
// class) is queued behind the active continuous scan, later attachable
// arrivals must stop absorbing into the run (max_absorb_revolutions = 0
// pauses attachment as soon as anything waits) so the run drains and the
// queued job gets served instead of starving indefinitely.
TEST(ServerAdmissionTest, QueuedJobBoundsAttachAbsorption) {
  auto slot = std::make_shared<HookSlot>();
  EngineConfig cfg;
  cfg.parallelism = 1;
  cfg.server.segment_rows = 7500;  // 8 segments per revolution
  cfg.server.max_absorb_revolutions = 0;
  cfg.server.on_segment_boundary = [slot](uint64_t cursor) {
    if (slot->fn) slot->fn(cursor);
  };
  std::vector<DimensionConfig> dims;
  dims.push_back({.name = "X", .top_cardinality = 2, .fanouts = {8, 10}});
  dims.push_back({.name = "Y", .top_cardinality = 2, .fanouts = {8, 10}});
  dims.push_back({.name = "W", .top_cardinality = 3, .fanouts = {4}});
  Engine engine(StarSchema(std::move(dims), "m"), cfg);
  engine.LoadFactTable({.num_rows = 60000, .seed = 91});
  ASSERT_TRUE(engine.BuildIndexes("XYW", {"X", "Y"}).ok());
  const StarSchema& schema = engine.schema();

  // Very selective on the indexed prefix: plans as kIndexProbe, so its
  // class is not scan-only and always queues behind the active run.
  const DimensionalQuery probe = MakeQuery(
      schema, 99, "XY", {{"X", 0, {3}}, {"Y", 0, {7}}, {"W", 1, {1}}});
  {
    std::vector<DimensionalQuery> one{probe};
    const GlobalPlan plan = engine.Optimize(one, OptimizerKind::kGlobalGreedy);
    ASSERT_EQ(plan.classes[0].members[0].method, JoinMethod::kIndexProbe);
  }

  std::vector<DimensionalQuery> attachables;
  for (int i = 0; i < 12; ++i) {
    attachables.push_back(MakeQuery(schema, 100 + i, "X'", {}));
  }

  QueryHandle probe_handle;
  std::vector<QueryHandle> attach_handles;
  int boundaries = 0;
  slot->fn = [&](uint64_t) {
    ++boundaries;
    if (boundaries > 8) return;  // only feed the first revolution
    if (boundaries == 1) {
      // Queue empty: this one is allowed to absorb into the run.
      attach_handles.push_back(engine.server().Submit(0, attachables[0]));
    } else if (boundaries == 2) {
      probe_handle = engine.server().Submit(0, probe);
    } else if (attach_handles.size() < attachables.size()) {
      attach_handles.push_back(
          engine.server().Submit(0, attachables[attach_handles.size()]));
    }
  };

  QueryHandle first = engine.Submit(MakeQuery(schema, 1, "Y'", {}));
  ASSERT_TRUE(first.Await().ok());
  ASSERT_TRUE(probe_handle.Await().ok()) << probe_handle.Await().status.ToString();
  ASSERT_GE(attach_handles.size(), 3u);
  for (QueryHandle& h : attach_handles) EXPECT_TRUE(h.Await().ok());

  // Exactly the pre-queue arrival attached; everything after the index job
  // queued opened its own class instead of keeping the run alive.
  EXPECT_EQ(engine.server().attached(), 1u);
  EXPECT_EQ(engine.server().classes_opened(),
            2u + attach_handles.size() - 1);  // first + probe + later arrivals
}

TEST(ServerAdmissionTest, JoinOrOpenArithmetic) {
  auto engine = MakeEngine(nullptr);
  const auto queries = Workload(engine->schema());
  std::vector<DimensionalQuery> one{queries[0]};
  const GlobalPlan plan =
      engine->Optimize(one, OptimizerKind::kGlobalGreedy);
  ASSERT_EQ(plan.classes.size(), 1u);
  const ClassPlan& cls = plan.classes[0];
  ASSERT_TRUE(ScanOnlyClass(cls));
  const MaterializedView& view = *cls.base;
  const std::vector<const DimensionalQuery*> active = {&queries[1]};

  // Joining a scan that has not moved costs no wraparound I/O: always
  // cheaper than opening a second full scan.
  const JoinOrOpen at_start = EvaluateJoinOrOpen(
      engine->cost_model(), view, active, cls, /*cursor_rows=*/0);
  EXPECT_TRUE(at_start.join);
  EXPECT_LT(at_start.join_ms, at_start.open_ms);

  // The join price grows monotonically with the missed prefix.
  const uint64_t n = view.table().num_rows();
  double prev = at_start.join_ms;
  for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
    const JoinOrOpen decision =
        EvaluateJoinOrOpen(engine->cost_model(), view, active, cls,
                           static_cast<uint64_t>(frac * n));
    EXPECT_GT(decision.join_ms, prev);
    prev = decision.join_ms;
  }
}

TEST(ServerAdmissionTest, BudgetDenialIsTypedAndUnbudgetedTwinAdmits) {
  EngineConfig tight;
  tight.memory_budget_bytes = 8;  // below any query's 16-byte-per-group floor
  auto denied_engine = MakeEngine(nullptr, tight);
  const auto queries = Workload(denied_engine->schema());

  QueryHandle handle = denied_engine->Submit(queries[0]);
  const QueryOutcome& out = handle.Await();
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(denied_engine->server().denied(), 1u);
  EXPECT_EQ(denied_engine->server().admitted(), 0u);

  auto open_engine = MakeEngine(nullptr);
  EXPECT_TRUE(open_engine->Submit(queries[0]).Await().ok());
}

}  // namespace
}  // namespace starshare
