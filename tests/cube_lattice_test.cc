// CUBE/ROLLUP lattice: planning (smallest-parent scheduling), the derived
// rollup pipeline, and the determinism contract — every lattice level
// bit-identical to its independently evaluated oracle at any parallelism,
// batch size, memory budget and page layout, with the fact pages read
// exactly once for the whole lattice.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "cube/lattice.h"
#include "mdx/binder.h"
#include "query/cube_query.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::BruteForce;
using testing::SmallSchema;

// Deterministic facts with integer-valued measures: integer sums are exact
// in double arithmetic, so rollups (re-aggregations of partial sums) must
// match the direct evaluation bit for bit.
std::unique_ptr<Table> MakeIntegerFacts(const StarSchema& s, uint64_t rows,
                                        uint64_t seed) {
  std::vector<std::string> key_names;
  for (size_t d = 0; d < s.num_dims(); ++d) {
    key_names.push_back(s.dim(d).dim_name());
  }
  auto table = std::make_unique<Table>("facts", key_names, s.measure_names());
  table->Reserve(rows);
  Rng rng(seed);
  std::vector<int32_t> keys(s.num_dims());
  for (uint64_t row = 0; row < rows; ++row) {
    for (size_t d = 0; d < s.num_dims(); ++d) {
      keys[d] = static_cast<int32_t>(rng.NextBounded(s.dim(d).cardinality(0)));
    }
    const double measure = static_cast<double>(rng.NextBounded(1000));
    table->AppendRowM(keys.data(), &measure);
  }
  return table;
}

std::unique_ptr<Engine> MakeEngine(const EngineConfig& config,
                                   uint64_t rows = 20000) {
  auto engine = std::make_unique<Engine>(SmallSchema(), config);
  auto attached = engine->AttachFactTable(
      MakeIntegerFacts(engine->schema(), rows, /*seed=*/61));
  SS_CHECK(attached.ok());
  return engine;
}

CubeQuery ThreeDimCube(CubeForm form, AggOp agg = AggOp::kSum) {
  // X at level 1, Y at level 1, Z at level 0, restricted to Z in {0..5}.
  QueryPredicate predicate;
  const StarSchema schema = SmallSchema();
  predicate.AddConjunct(schema.dim(2),
                        DimPredicate{2, 0, {0, 1, 2, 3, 4, 5}});
  return CubeQuery(form, {0, 1, 2}, {1, 1, 0}, std::move(predicate), agg);
}

// ---- CubeQuery form ------------------------------------------------------

TEST(CubeQueryTest, ValidateRejectsMalformedRequests) {
  const StarSchema s = SmallSchema();
  EXPECT_FALSE(CubeQuery(CubeForm::kCube, {}, {}, {}).Validate(s).ok());
  EXPECT_FALSE(CubeQuery(CubeForm::kCube, {0, 1}, {0}, {}).Validate(s).ok());
  EXPECT_FALSE(CubeQuery(CubeForm::kCube, {0, 0}, {0, 1}, {}).Validate(s).ok());
  EXPECT_FALSE(CubeQuery(CubeForm::kCube, {7}, {0}, {}).Validate(s).ok());
  EXPECT_FALSE(CubeQuery(CubeForm::kCube, {0}, {9}, {}).Validate(s).ok());
  // The ALL pseudo-level is not a groupable level.
  EXPECT_FALSE(CubeQuery(CubeForm::kCube, {2}, {s.dim(2).all_level()}, {})
                   .Validate(s)
                   .ok());
  EXPECT_TRUE(CubeQuery(CubeForm::kCube, {0, 2}, {1, 0}, {}).Validate(s).ok());
}

TEST(CubeQueryTest, CubeExpansionOrdersParentsFirst) {
  const StarSchema s = SmallSchema();
  const CubeQuery cube(CubeForm::kCube, {0, 1}, {1, 0}, {});
  ASSERT_EQ(cube.NumLevels(), 4u);
  auto expanded = cube.ExpandLevels(s, /*first_id=*/10);
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  ASSERT_EQ(expanded->size(), 4u);
  // Finest first (both retained), grand total last; ids ascend in order.
  EXPECT_EQ((*expanded)[0].target().level(0), 1);
  EXPECT_EQ((*expanded)[0].target().level(1), 0);
  EXPECT_EQ((*expanded)[3].target().level(0), s.dim(0).all_level());
  EXPECT_EQ((*expanded)[3].target().level(1), s.dim(1).all_level());
  for (size_t i = 0; i < expanded->size(); ++i) {
    EXPECT_EQ((*expanded)[i].id(), 10 + static_cast<int>(i));
    // Z never appears: it is not a cubed dimension.
    EXPECT_EQ((*expanded)[i].target().level(2), s.dim(2).all_level());
  }
}

TEST(CubeQueryTest, RollupExpansionWalksPrefixes) {
  const StarSchema s = SmallSchema();
  const CubeQuery rollup(CubeForm::kRollup, {0, 1, 2}, {1, 1, 0}, {});
  ASSERT_EQ(rollup.NumLevels(), 4u);
  auto expanded = rollup.ExpandLevels(s, 1);
  ASSERT_TRUE(expanded.ok());
  ASSERT_EQ(expanded->size(), 4u);
  // Prefixes longest -> empty: XYZ, XY, X, ().
  EXPECT_EQ((*expanded)[0].target().RetainedDims(s).size(), 3u);
  EXPECT_EQ((*expanded)[1].target().RetainedDims(s).size(), 2u);
  EXPECT_EQ((*expanded)[2].target().RetainedDims(s).size(), 1u);
  EXPECT_EQ((*expanded)[3].target().RetainedDims(s).size(), 0u);
  EXPECT_EQ((*expanded)[2].target().level(0), 1);
}

// ---- Lattice planning ----------------------------------------------------

TEST(LatticePlanTest, SmallestParentSchedulingRollsUpEveryLevel) {
  auto engine = MakeEngine({});
  auto plan = PlanLattice(ThreeDimCube(CubeForm::kCube), engine->schema(),
                          engine->views(), engine->cost_model());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->steps.size(), 8u);
  EXPECT_EQ(plan->steps[0].parent, kNoLatticeParent);  // finest: always base
  // Re-aggregating a few hundred in-memory groups beats re-scanning 20k
  // fact rows for every coarser level.
  EXPECT_EQ(plan->NumBase(), 1u);
  EXPECT_EQ(plan->NumRollups(), 7u);
  for (size_t i = 1; i < plan->steps.size(); ++i) {
    const LatticeStep& step = plan->steps[i];
    ASSERT_LT(step.parent, i);  // parents precede their children
    EXPECT_TRUE(plan->steps[step.parent].query.target().CanAnswer(
        step.query.target()));
    EXPECT_GE(step.est_rollup_ms, 0.0);
    EXPECT_LE(step.est_rollup_ms, step.est_rescan_ms);
  }
  EXPECT_FALSE(plan->ToString(engine->schema()).empty());
}

TEST(LatticePlanTest, AvgNeverRollsUp) {
  auto engine = MakeEngine({});
  auto plan =
      PlanLattice(ThreeDimCube(CubeForm::kRollup, AggOp::kAvg),
                  engine->schema(), engine->views(), engine->cost_model());
  ASSERT_TRUE(plan.ok());
  // Partial averages do not re-aggregate: every level runs on base data.
  EXPECT_EQ(plan->NumBase(), plan->steps.size());
  EXPECT_EQ(plan->NumRollups(), 0u);
}

TEST(LatticePlanTest, FailsWithoutBaseData) {
  Engine engine(SmallSchema());
  auto plan = PlanLattice(ThreeDimCube(CubeForm::kCube), engine.schema(),
                          engine.views(), engine.cost_model());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LatticePlanTest, RollupQueryStripsPredicateAndMapsCount) {
  const StarSchema s = SmallSchema();
  const CubeQuery cube = ThreeDimCube(CubeForm::kCube, AggOp::kCount);
  auto expanded = cube.ExpandLevels(s, 1);
  ASSERT_TRUE(expanded.ok());
  const DimensionalQuery rollup = RollupQueryFor((*expanded)[1]);
  EXPECT_EQ(rollup.id(), (*expanded)[1].id());
  EXPECT_TRUE(rollup.predicate().empty());
  EXPECT_EQ(rollup.agg(), AggOp::kSum);  // COUNT = SUM of per-group counts
  EXPECT_EQ(rollup.measure(), 0u);
  EXPECT_EQ(rollup.target(), (*expanded)[1].target());
}

// ---- Execution: shared lattice vs independent oracle ---------------------

void ExpectCubeMatchesOracle(Engine& engine, const CubeQuery& cube) {
  auto exec = engine.ExecuteCube(cube, OptimizerKind::kGlobalGreedy);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->all_ok());
  ASSERT_EQ(exec->results.size(), exec->lattice.steps.size());
  for (size_t i = 0; i < exec->results.size(); ++i) {
    const ExecutedQuery& r = exec->results[i];
    ASSERT_EQ(r.query, &exec->lattice.steps[i].query);
    EXPECT_FALSE(r.degraded);
    const QueryResult oracle = BruteForce(
        engine.schema(), engine.base_view()->table(), *r.query);
    EXPECT_TRUE(BitIdentical(r.result, oracle))
        << "level " << i << " ("
        << r.query->target().ToString(engine.schema()) << ") diverged";
    EXPECT_EQ(r.result.agg(), cube.agg());
  }
}

TEST(CubeExecutionTest, EveryLevelBitIdenticalAcrossConfigurations) {
  // {1,4} threads x {1,1024} batch rows x {unbounded, 64KiB budget} x
  // {compressed, uncompressed}: identical bits everywhere, including the
  // spilled-rollup corner (64KiB forces aggregation out of memory).
  for (const size_t parallelism : {size_t{1}, size_t{4}}) {
    for (const size_t batch_rows : {size_t{1}, size_t{1024}}) {
      for (const uint64_t budget : {uint64_t{0}, uint64_t{64} << 10}) {
        for (const bool compressed : {true, false}) {
          EngineConfig config;
          config.parallelism = parallelism;
          config.batch.batch_rows = batch_rows;
          config.memory_budget_bytes = budget;
          config.compressed_pages = compressed;
          auto engine = MakeEngine(config);
          SCOPED_TRACE(::testing::Message()
                       << "threads=" << parallelism << " batch=" << batch_rows
                       << " budget=" << budget
                       << " compressed=" << compressed);
          ExpectCubeMatchesOracle(*engine, ThreeDimCube(CubeForm::kCube));
        }
      }
    }
  }
}

TEST(CubeExecutionTest, EveryAggregateMatchesOracle) {
  for (const AggOp agg :
       {AggOp::kSum, AggOp::kCount, AggOp::kMin, AggOp::kMax, AggOp::kAvg}) {
    auto engine = MakeEngine({});
    SCOPED_TRACE(::testing::Message() << "agg=" << AggOpName(agg));
    ExpectCubeMatchesOracle(*engine, ThreeDimCube(CubeForm::kCube, agg));
    ExpectCubeMatchesOracle(*engine, ThreeDimCube(CubeForm::kRollup, agg));
  }
}

TEST(CubeExecutionTest, SpilledRollupStaysBitIdentical) {
  // A budget small enough that the base level AND the rollups spill; the
  // spill/merge path must reproduce the in-memory bits exactly.
  EngineConfig config;
  config.memory_budget_bytes = 64 << 10;
  auto engine = MakeEngine(config, /*rows=*/40000);
  ExpectCubeMatchesOracle(*engine, ThreeDimCube(CubeForm::kCube));
  ASSERT_TRUE(engine->last_execution_report().clean());
}

TEST(CubeExecutionTest, FactPagesReadExactlyOnce) {
  auto engine = MakeEngine({});
  engine->ConsumeIoStats();
  auto exec = engine->ExecuteCube(ThreeDimCube(CubeForm::kCube),
                                  OptimizerKind::kGlobalGreedy);
  ASSERT_TRUE(exec.ok());
  ASSERT_EQ(exec->lattice.NumBase(), 1u);
  const IoStats stats = engine->ConsumeIoStats();
  // One shared scan of the base table feeds the whole 8-level lattice.
  EXPECT_EQ(stats.seq_pages_read, engine->base_view()->table().num_pages());
  EXPECT_EQ(stats.rand_pages_read, 0u);
  EXPECT_EQ(stats.index_pages_read, 0u);
}

TEST(CubeExecutionTest, DerivedScansChargeZeroIo) {
  auto engine = MakeEngine({});
  auto exec = engine->ExecuteCube(ThreeDimCube(CubeForm::kCube),
                                  OptimizerKind::kGlobalGreedy);
  ASSERT_TRUE(exec.ok());
  const PhysicalPlan& phys = engine->last_physical_plan();
  size_t derived_scans = 0;
  for (const PhysicalNode& node : phys.nodes()) {
    if (node.kind != PhysOpKind::kDerivedScan) continue;
    ++derived_scans;
    EXPECT_TRUE(node.executed);
    // Non-base levels charge zero fact I/O — not even tuple counts.
    EXPECT_EQ(node.actual_io, IoStats{});
    // The DAG edge names the producing Aggregate, which ran earlier.
    ASSERT_EQ(node.inputs.size(), 1u);
    const PhysicalNode& producer = phys.node(node.inputs.front());
    EXPECT_EQ(producer.kind, PhysOpKind::kAggregate);
    EXPECT_TRUE(producer.executed);
  }
  EXPECT_GT(derived_scans, 0u);
  // EXPLAIN ANALYZE renders the derived chains and their DAG edges.
  const std::string explain = engine->ExplainAnalyze();
  EXPECT_NE(explain.find("DerivedScan"), std::string::npos);
  EXPECT_NE(explain.find("reads=[#"), std::string::npos);
  EXPECT_NE(engine->ExplainAnalyzeJson().find("\"inputs\""),
            std::string::npos);
}

TEST(CubeExecutionTest, ShapeHashSeesDagEdges) {
  PhysicalPlan a, b;
  const size_t pa = a.AddNode(PhysOpKind::kAggregate, "x");
  a.AddNode(PhysOpKind::kAggregate, "x");
  const size_t sa = a.AddNode(PhysOpKind::kDerivedScan, "d");
  a.AddInput(sa, pa);
  b.AddNode(PhysOpKind::kAggregate, "x");
  const size_t pb = b.AddNode(PhysOpKind::kAggregate, "x");
  const size_t sb = b.AddNode(PhysOpKind::kDerivedScan, "d");
  b.AddInput(sb, pb);
  // Same nodes, different producer edge -> different shape.
  EXPECT_NE(a.ShapeHash(), b.ShapeHash());
}

TEST(CubeExecutionTest, TracedCubeRecordsDerivedSpans) {
  EngineConfig config;
  config.trace = true;
  auto engine = MakeEngine(config);
  auto exec = engine->ExecuteCube(ThreeDimCube(CubeForm::kRollup),
                                  OptimizerKind::kGlobalGreedy);
  ASSERT_TRUE(exec.ok());
  const std::string trace = engine->last_trace().ToText();
  EXPECT_NE(trace.find("engine.execute_cube"), std::string::npos);
  EXPECT_NE(trace.find("exec.derived_scan"), std::string::npos);
  // Lattice planning has its own span, counting the scheduled levels.
  const obs::TraceSpan* plan = engine->last_trace().Find("cube.plan_lattice");
  ASSERT_NE(plan, nullptr);
  const std::vector<std::pair<std::string, uint64_t>> counters = {
      {"levels", exec.value().lattice.steps.size()},
      {"rollups", exec.value().lattice.NumRollups()}};
  EXPECT_EQ(plan->counters, counters);
  EXPECT_GT(exec.value().lattice.NumRollups(), 0u);
}

TEST(CubeExecutionTest, ExecuteCubeWithoutFactTableFails) {
  Engine engine(SmallSchema());
  auto exec = engine.ExecuteCube(ThreeDimCube(CubeForm::kCube),
                                 OptimizerKind::kGlobalGreedy);
  EXPECT_EQ(exec.status().code(), StatusCode::kFailedPrecondition);
}

// ---- MDX surface ---------------------------------------------------------

TEST(MdxCubeTest, ParsesWithCubeSuffix) {
  const StarSchema s = SmallSchema();
  auto cube = mdx::ParseAndExpandCube(
      "{X'.MEMBERS} ON COLUMNS {Y'.MEMBERS} ON ROWS CONTEXT sales "
      "WITH CUBE;",
      s);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ(cube->form(), CubeForm::kCube);
  ASSERT_EQ(cube->dims(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(cube->levels(), (std::vector<int>{1, 1}));
  EXPECT_TRUE(cube->predicate().empty());
  EXPECT_EQ(cube->NumLevels(), 4u);
}

TEST(MdxCubeTest, RollupKeepsAxisOrderAndRestrictions) {
  const StarSchema s = SmallSchema();
  auto cube = mdx::ParseAndExpandCube(
      "{Z.MEMBERS} ON COLUMNS {X'.XX1} ON ROWS CONTEXT sales "
      "FILTER(Y''.Y1) WITH ROLLUP",
      s);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ(cube->form(), CubeForm::kRollup);
  // Axis order fixes the prefix order: Z (base level) then X at level 1.
  ASSERT_EQ(cube->dims(), (std::vector<size_t>{2, 0}));
  EXPECT_EQ(cube->levels(), (std::vector<int>{0, 1}));
  // The X'1 restriction and the Y slicer both land in the predicate.
  EXPECT_FALSE(cube->predicate().empty());
}

TEST(MdxCubeTest, RejectsMalformedCubeExpressions) {
  const StarSchema s = SmallSchema();
  // No WITH clause.
  EXPECT_FALSE(mdx::ParseAndExpandCube(
                   "{X'.MEMBERS} ON COLUMNS CONTEXT sales", s)
                   .ok());
  // WITH followed by garbage.
  EXPECT_FALSE(mdx::ParseAndExpandCube(
                   "{X'.MEMBERS} ON COLUMNS CONTEXT sales WITH NONSENSE", s)
                   .ok());
  // An axis set mixing levels cannot name one cubed (dim, level).
  EXPECT_FALSE(mdx::ParseAndExpandCube(
                   "{X'.XX1, X''.X1} ON COLUMNS CONTEXT sales WITH CUBE", s)
                   .ok());
  // The same dimension on two axes.
  EXPECT_FALSE(
      mdx::ParseAndExpandCube("{X'.MEMBERS} ON COLUMNS {X''.MEMBERS} ON ROWS "
                              "CONTEXT sales WITH CUBE",
                              s)
          .ok());
}

TEST(MdxCubeTest, ParsedCubeExecutesEndToEnd) {
  auto engine = MakeEngine({});
  auto cube = engine->ParseCube(
      "{X'.MEMBERS} ON COLUMNS {Z.MEMBERS} ON ROWS CONTEXT sales WITH CUBE");
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ExpectCubeMatchesOracle(*engine, cube.value());
}

// Plain (non-cube) expressions must parse exactly as before.
TEST(MdxCubeTest, SuffixDoesNotDisturbPlainParsing) {
  const StarSchema s = SmallSchema();
  auto queries = mdx::ParseAndExpandMdx(
      "{X'.MEMBERS} ON COLUMNS CONTEXT sales;", s);
  ASSERT_TRUE(queries.ok());
  EXPECT_EQ(queries->size(), 1u);
}

}  // namespace
}  // namespace starshare
