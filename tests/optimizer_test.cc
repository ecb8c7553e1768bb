#include <gtest/gtest.h>

#include <map>

#include "core/engine.h"
#include "exec/operators/star_join_filter.h"
#include "opt/and_or_dag.h"
#include "opt/local_optimizer.h"
#include "plan/lowering.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::BruteForce;
using testing::MakeQuery;
using testing::SmallSchema;

TEST(OptimizerKindTest, NamesAndParsing) {
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kTplo), "TPLO");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kEtplg), "ETPLG");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kGlobalGreedy), "GG");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kDagGreedy), "DAG");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kExhaustive), "OPTIMAL");
  EXPECT_EQ(ParseOptimizerKind("gg").value(), OptimizerKind::kGlobalGreedy);
  EXPECT_EQ(ParseOptimizerKind("dag").value(), OptimizerKind::kDagGreedy);
  EXPECT_EQ(ParseOptimizerKind("dag_greedy").value(),
            OptimizerKind::kDagGreedy);
  EXPECT_EQ(ParseOptimizerKind("TPLO").value(), OptimizerKind::kTplo);
  EXPECT_EQ(ParseOptimizerKind("optimal").value(),
            OptimizerKind::kExhaustive);
  EXPECT_FALSE(ParseOptimizerKind("nope").ok());
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Flash-like random reads so selective queries can win with indexes
    // at this small scale (compressed pages make sequential scans ~2x
    // cheaper, so random reads must keep pace for needles to stay indexed).
    EngineConfig config;
    config.disk_timings.rand_page_ms = 1.0;
    engine_ = std::make_unique<Engine>(SmallSchema(), config);
    engine_->LoadFactTable({.num_rows = 40000, .seed = 51});
    // The lattice around the paper's Example 2: two "locally optimal" small
    // views plus their common finer parent.
    for (const char* spec :
         {"X'Y'", "X'Y''", "X''Y'", "X''Y''", "X''Y''Z'"}) {
      ASSERT_TRUE(engine_->MaterializeView(spec).ok()) << spec;
    }
    ASSERT_TRUE(
        engine_->BuildIndexes("XYZ", {"X", "Y", "Z"}).ok());
  }

  const StarSchema& schema() const { return engine_->schema(); }

  std::unique_ptr<Engine> engine_;
};

TEST_F(OptimizerTest, LocalOptimizerPicksSmallestAnsweringView) {
  DimensionalQuery q = MakeQuery(schema(), 1, "X''Y''", {});
  std::vector<MaterializedView*> candidates;
  for (const auto& v : engine_->views().all()) {
    if (v->spec().CanAnswer(q.RequiredSpec(schema()))) {
      candidates.push_back(v.get());
    }
  }
  const LocalChoice choice =
      BestLocalPlan(q, candidates, engine_->cost_model());
  // X''Y'' (4 cells) is the smallest answering view and must win.
  EXPECT_EQ(choice.view->name(), "X''Y''");
  EXPECT_EQ(choice.method, JoinMethod::kHashScan);
}

TEST_F(OptimizerTest, TploKeepsLocalOptimaApart) {
  // Q1's unique best view is X'Y'' and Q2's is X''Y' — TPLO must not
  // sacrifice either for sharing (the paper's Fig. 6 situation).
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X'Y''", {}));
  queries.push_back(MakeQuery(schema(), 2, "X''Y'", {}));
  GlobalPlan plan = engine_->Optimize(queries, OptimizerKind::kTplo);
  ASSERT_EQ(plan.classes.size(), 2u);
  EXPECT_NE(plan.classes[0].base, plan.classes[1].base);
}

TEST_F(OptimizerTest, TploMergesIdenticalChoices) {
  // Both queries' local optimum is the same view: phase two merges them.
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X''Y''", {{"X", 2, {0}}}));
  queries.push_back(MakeQuery(schema(), 2, "X''Y''", {{"Y", 2, {1}}}));
  GlobalPlan plan = engine_->Optimize(queries, OptimizerKind::kTplo);
  ASSERT_EQ(plan.classes.size(), 1u);
  EXPECT_EQ(plan.classes[0].members.size(), 2u);
}

TEST_F(OptimizerTest, EtplgJoinsExistingClassWhenCheaper) {
  // Q2 could run on its own view, but joining Q1's class costs only CPU.
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X'Y'", {{"X", 2, {0}}}));
  queries.push_back(MakeQuery(schema(), 2, "X'Y''", {{"Y", 2, {1}}}));
  GlobalPlan plan = engine_->Optimize(queries, OptimizerKind::kEtplg);
  ASSERT_EQ(plan.classes.size(), 1u);
  EXPECT_EQ(plan.classes[0].members.size(), 2u);
}

TEST_F(OptimizerTest, GgRebasesOntoCommonParent) {
  // The paper's Example 2: the two queries' locally optimal views differ
  // (X'Y'' and X''Y'), but computing both from the common finer view X'Y'
  // shares its scan. GG must end with a single class on X'Y'.
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X'Y''", {}));
  queries.push_back(MakeQuery(schema(), 2, "X''Y'", {}));

  GlobalPlan gg = engine_->Optimize(queries, OptimizerKind::kGlobalGreedy);
  ASSERT_EQ(gg.classes.size(), 1u);
  EXPECT_EQ(gg.classes[0].base->name(), "X'Y'");

  // ETPLG cannot change a class's base: it ends with two classes and a
  // costlier plan.
  GlobalPlan etplg = engine_->Optimize(queries, OptimizerKind::kEtplg);
  EXPECT_EQ(etplg.classes.size(), 2u);
  EXPECT_LE(gg.EstMs(), etplg.EstMs());
}

TEST_F(OptimizerTest, HeuristicsNeverBeatExhaustive) {
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X'Y''", {{"X", 2, {0}}}));
  queries.push_back(MakeQuery(schema(), 2, "X''Y'", {{"Y", 2, {1}}}));
  queries.push_back(MakeQuery(schema(), 3, "X''Z'", {{"Z", 1, {1}}}));

  const GlobalPlan optimal =
      engine_->Optimize(queries, OptimizerKind::kExhaustive);
  for (OptimizerKind kind : {OptimizerKind::kTplo, OptimizerKind::kEtplg,
                             OptimizerKind::kGlobalGreedy,
                             OptimizerKind::kDagGreedy}) {
    const GlobalPlan plan = engine_->Optimize(queries, kind);
    EXPECT_LE(optimal.EstMs(), plan.EstMs() + 1e-9)
        << OptimizerKindName(kind);
    EXPECT_EQ(plan.NumQueries(), 3u) << OptimizerKindName(kind);
  }
}

TEST_F(OptimizerTest, EveryPlanCoversEveryQueryOnce) {
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X'Y'", {{"X", 2, {0}}}));
  queries.push_back(MakeQuery(schema(), 2, "X''", {}));
  queries.push_back(
      MakeQuery(schema(), 3, "XY", {{"X", 0, {2}}, {"Y", 0, {3}}}));
  for (OptimizerKind kind :
       {OptimizerKind::kTplo, OptimizerKind::kEtplg,
        OptimizerKind::kGlobalGreedy, OptimizerKind::kDagGreedy,
        OptimizerKind::kExhaustive}) {
    const GlobalPlan plan = engine_->Optimize(queries, kind);
    std::set<int> ids;
    for (const auto& cls : plan.classes) {
      ASSERT_NE(cls.base, nullptr);
      for (const auto& m : cls.members) {
        EXPECT_TRUE(ids.insert(m.query->id()).second)
            << "duplicate query in plan of " << OptimizerKindName(kind);
        // The class base must actually answer the member.
        EXPECT_TRUE(
            cls.base->spec().CanAnswer(m.query->RequiredSpec(schema())));
      }
    }
    EXPECT_EQ(ids.size(), 3u);
  }
}

TEST_F(OptimizerTest, PlansUseDistinctClassBases) {
  // No optimizer should ever emit two classes on one base table (TPLO and
  // ETPLG merge; GG has MergeClass).
  std::vector<DimensionalQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(MakeQuery(schema(), i + 1, "X''Y''",
                                {{"X", 2, {i % 2}}}));
  }
  for (OptimizerKind kind :
       {OptimizerKind::kTplo, OptimizerKind::kEtplg,
        OptimizerKind::kGlobalGreedy, OptimizerKind::kDagGreedy,
        OptimizerKind::kExhaustive}) {
    const GlobalPlan plan = engine_->Optimize(queries, kind);
    std::set<const MaterializedView*> bases;
    for (const auto& cls : plan.classes) {
      EXPECT_TRUE(bases.insert(cls.base).second)
          << OptimizerKindName(kind) << " reused a base table";
    }
  }
}

TEST_F(OptimizerTest, NonSumAggregatesPinnedToBaseData) {
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "X''", {}, AggOp::kMax));
  queries.push_back(MakeQuery(schema(), 2, "X''", {}, AggOp::kAvg));
  for (OptimizerKind kind :
       {OptimizerKind::kTplo, OptimizerKind::kEtplg,
        OptimizerKind::kGlobalGreedy, OptimizerKind::kDagGreedy,
        OptimizerKind::kExhaustive}) {
    const GlobalPlan plan = engine_->Optimize(queries, kind);
    for (const auto& cls : plan.classes) {
      EXPECT_EQ(cls.base->spec(), GroupBySpec::Base(schema()))
          << OptimizerKindName(kind);
    }
  }
}

TEST_F(OptimizerTest, SelectiveQueriesGetIndexPlans) {
  // Needle queries on the indexed base: the local plan should be an index
  // probe, and a class of needles should stay index-based.
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "XYZ",
                              {{"X", 0, {1}}, {"Y", 0, {2}}, {"Z", 0, {3}}}));
  queries.push_back(MakeQuery(schema(), 2, "XYZ",
                              {{"X", 0, {5}}, {"Y", 0, {6}}, {"Z", 0, {7}}}));
  const GlobalPlan plan =
      engine_->Optimize(queries, OptimizerKind::kGlobalGreedy);
  ASSERT_EQ(plan.classes.size(), 1u);
  EXPECT_FALSE(plan.classes[0].HasHashMember());
  EXPECT_EQ(plan.classes[0].base->spec(), GroupBySpec::Base(schema()));
}

TEST_F(OptimizerTest, AndOrDagUnifiesEquivalenceNodesAcrossQueries) {
  // A selective base query (hash + probe alternatives) and a coarse one:
  // both can read the base table, and the DAG must route them through one
  // shared equivalence node for it.
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(schema(), 1, "XYZ",
                              {{"X", 0, {1}}, {"Y", 0, {2}}, {"Z", 0, {3}}}));
  queries.push_back(MakeQuery(schema(), 2, "X''Y''", {}));

  std::vector<const DimensionalQuery*> qptrs;
  std::vector<std::vector<MaterializedView*>> candidates;
  for (const auto& q : queries) {
    qptrs.push_back(&q);
    std::vector<MaterializedView*> views{engine_->base_view()};
    for (const auto& v : engine_->views().all()) {
      if (v->spec().CanAnswer(q.RequiredSpec(schema()))) {
        views.push_back(v.get());
      }
    }
    candidates.push_back(std::move(views));
  }

  const AndOrDag dag(qptrs, candidates, engine_->cost_model());
  ASSERT_EQ(dag.queries().size(), 2u);
  // Q1's needle predicate on the indexed base yields both a scan and a
  // probe alternative; every alternative list is cheapest-first.
  EXPECT_GT(dag.queries()[0].alts.size(), candidates[0].size());
  EXPECT_EQ(dag.NumAndNodes(),
            dag.queries()[0].alts.size() + dag.queries()[1].alts.size());
  for (const auto& node : dag.queries()) {
    for (size_t i = 1; i < node.alts.size(); ++i) {
      EXPECT_LE(node.alts[i - 1].standalone_ms, node.alts[i].standalone_ms);
    }
  }
  // The base view's equivalence node is shared by both queries.
  bool found_shared_base = false;
  for (const auto& sn : dag.shared()) {
    if (sn.view == engine_->base_view()) {
      found_shared_base = true;
      EXPECT_EQ(sn.users.size(), 2u);
    }
  }
  EXPECT_TRUE(found_shared_base);

  const std::string rendered = dag.ToString();
  EXPECT_NE(rendered.find("Q1:"), std::string::npos);
  EXPECT_NE(rendered.find("probe"), std::string::npos);
  EXPECT_NE(rendered.find("users: Q1 Q2"), std::string::npos);
}

TEST_F(OptimizerTest, OversizedClassChunksIdenticallyAcrossOptimizers) {
  // 40 MIN queries: non-SUM aggregates pin every optimizer to the base
  // data, so all five must emit one 40-member class that the executor (and
  // LowerGlobalPlan) split into two chunks of kMaxClassQueries = 32 + 8.
  ASSERT_GT(40u, kMaxClassQueries);
  std::vector<DimensionalQuery> queries;
  const char* targets[] = {"X'Y'", "X''Z'", "Y'Z'", "X'", "Z'"};
  for (int i = 0; i < 40; ++i) {
    queries.push_back(
        MakeQuery(schema(), i + 1, targets[i % 5], {}, AggOp::kMin));
  }

  // Brute-force reference straight off the fact table (MIN is exact in
  // floating point, so bitwise comparison is valid).
  const Table& base_table = engine_->base_view()->table();
  std::map<int, QueryResult> reference;
  for (const auto& q : queries) {
    reference.emplace(q.id(), BruteForce(schema(), base_table, q));
  }
  const uint64_t base_pages = base_table.num_pages();

  for (OptimizerKind kind :
       {OptimizerKind::kTplo, OptimizerKind::kEtplg,
        OptimizerKind::kGlobalGreedy, OptimizerKind::kDagGreedy,
        OptimizerKind::kExhaustive}) {
    SCOPED_TRACE(OptimizerKindName(kind));
    const GlobalPlan plan = engine_->Optimize(queries, kind);
    ASSERT_EQ(plan.classes.size(), 1u);
    ASSERT_EQ(plan.classes[0].members.size(), 40u);
    EXPECT_EQ(plan.classes[0].base, engine_->base_view());
    for (const auto& m : plan.classes[0].members) {
      EXPECT_EQ(m.method, JoinMethod::kHashScan);
    }

    // ClassOf must resolve every member to the single class and reject
    // unknown ids.
    for (const auto& q : queries) {
      const auto cls = plan.ClassOf(q.id());
      ASSERT_TRUE(cls.has_value()) << "query " << q.id();
      EXPECT_EQ(*cls, 0u);
    }
    EXPECT_FALSE(plan.ClassOf(999).has_value());

    engine_->ConsumeIoStats();
    const auto results = engine_->Execute(plan);
    const IoStats io = engine_->ConsumeIoStats();
    ASSERT_EQ(results.size(), 40u);

    // Two chunks -> the base is scanned exactly twice (cache hits and
    // misses both count as touches; no member probes an index).
    EXPECT_EQ(io.seq_pages_read + io.cached_pages, 2 * base_pages);
    EXPECT_EQ(io.rand_pages_read, 0u);
    EXPECT_EQ(io.index_pages_read, 0u);

    // The standalone lowering of the chunked class must mirror what the
    // executor actually ran.
    PhysicalPlan lowered;
    LowerGlobalPlan(lowered, plan, schema());
    EXPECT_EQ(lowered.ShapeHash(), engine_->last_physical_plan().ShapeHash());

    for (const auto& r : results) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_FALSE(r.degraded);
      EXPECT_TRUE(BitIdentical(r.result, reference.at(r.query->id())))
          << "query " << r.query->id();
    }
  }
}

TEST_F(OptimizerTest, ClassOfTracksMembersAcrossMultipleClasses) {
  // 34 MIN queries (forced onto the base, chunked 32 + 2) plus two SUM
  // queries that every optimizer serves from a small view: ClassOf must
  // route each id to its own class in every plan shape.
  std::vector<DimensionalQuery> queries;
  for (int i = 0; i < 34; ++i) {
    queries.push_back(MakeQuery(schema(), i + 1, (i % 2) ? "X'" : "Y'Z'", {},
                                AggOp::kMin));
  }
  queries.push_back(MakeQuery(schema(), 100, "X''Y''", {}));
  queries.push_back(MakeQuery(schema(), 101, "X''Y''", {{"X", 2, {0}}}));

  for (OptimizerKind kind :
       {OptimizerKind::kTplo, OptimizerKind::kEtplg,
        OptimizerKind::kGlobalGreedy, OptimizerKind::kDagGreedy,
        OptimizerKind::kExhaustive}) {
    SCOPED_TRACE(OptimizerKindName(kind));
    const GlobalPlan plan = engine_->Optimize(queries, kind);
    ASSERT_EQ(plan.NumQueries(), queries.size());
    for (size_t c = 0; c < plan.classes.size(); ++c) {
      for (const auto& m : plan.classes[c].members) {
        const auto got = plan.ClassOf(m.query->id());
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, c) << "query " << m.query->id();
      }
    }
    // The SUM pair must not share a class with the base-pinned MIN block.
    const auto sum_cls = plan.ClassOf(100);
    const auto min_cls = plan.ClassOf(1);
    ASSERT_TRUE(sum_cls.has_value());
    ASSERT_TRUE(min_cls.has_value());
    EXPECT_NE(*sum_cls, *min_cls);
    EXPECT_NE(plan.classes[*sum_cls].base, engine_->base_view());

    const auto results = engine_->Execute(plan);
    ASSERT_EQ(results.size(), queries.size());
    for (const auto& r : results) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_FALSE(r.degraded);
    }
    PhysicalPlan lowered;
    LowerGlobalPlan(lowered, plan, schema());
    EXPECT_EQ(lowered.ShapeHash(), engine_->last_physical_plan().ShapeHash());
  }
}

}  // namespace
}  // namespace starshare
