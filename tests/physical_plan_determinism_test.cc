// The physical-plan DAG's hard invariant: every execution path is one
// lowered operator chain pulled by a driver, and the driver's knobs —
// thread count, batch size — never change the bits. Results must be
// BYTE-identical and charged IoStats EXACTLY equal across {1, 4} threads x
// {1, 1024} batch rows for all three shared operators, the unshared
// single-query baseline, and view builds; the reference runs match the
// independent oracles (tests/oracles.h, testing::BruteForce); and the tree
// that executed must hash to the same shape as the planning-time lowering
// of the same GlobalPlan.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "core/paper_workload.h"
#include "cube/view_builder.h"
#include "exec/executor.h"
#include "exec/operators/class_pipeline.h"
#include "parallel/thread_pool.h"
#include "plan/lowering.h"
#include "schema/data_generator.h"
#include "tests/oracles.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::BruteForce;
using testing::MakeQuery;
using testing::SmallSchema;

struct DriverConfig {
  size_t threads;
  size_t batch_rows;
};

// The acceptance matrix.
std::vector<DriverConfig> Matrix() {
  return {{1, 1}, {1, 1024}, {4, 1}, {4, 1024}};
}

const char* Label(const DriverConfig& c) {
  static thread_local std::string label;
  label = "threads=" + std::to_string(c.threads) +
          " batch=" + std::to_string(c.batch_rows);
  return label.c_str();
}

// The driver policy for one matrix point; `pool` keeps its threads alive.
ParallelPolicy PolicyFor(const DriverConfig& config,
                         std::unique_ptr<ThreadPool>& pool) {
  ParallelPolicy policy;
  policy.batch.batch_rows = config.batch_rows;
  if (config.threads > 1) {
    pool = std::make_unique<ThreadPool>(config.threads);
    policy.pool = pool.get();
    policy.parallelism = config.threads;
  }
  return policy;
}

void ExpectTablesBitIdentical(const Table& a, const Table& b,
                              const char* label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  for (uint64_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_key_columns(); ++c) {
      ASSERT_EQ(a.key(c, r), b.key(c, r)) << label << " row " << r;
    }
    for (size_t m = 0; m < a.num_measures(); ++m) {
      const double x = a.measure(r, m), y = b.measure(r, m);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << label << " row " << r << " measure " << m;
    }
  }
}

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

class PhysicalPlanDeterminismTest : public ::testing::Test {
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

  // Runs one shared class under the config, returning outcome, charged
  // stats, and the executed tree's shape hash.
  struct ClassRun {
    Result<SharedOutcome> outcome;
    IoStats stats;
    std::string shape;
  };
  ClassRun RunClass(const std::vector<const DimensionalQuery*>& hash,
                    const std::vector<const DimensionalQuery*>& index,
                    bool probe, const DriverConfig& config) {
    std::unique_ptr<ThreadPool> pool;
    const ParallelPolicy policy = PolicyFor(config, pool);
    DiskModel disk;
    PhysicalPlan phys;
    const LoweredClassNodes nodes = LowerSharedClass(
        phys, kNoPhysNode, view_->name(), hash.size(), index.size(), probe,
        /*query_id=*/-1, /*cls=*/nullptr);
    SharedClassRequest req;
    req.schema = &schema_;
    req.hash_queries = hash;
    req.index_queries = index;
    req.view = view_.get();
    req.disk = &disk;
    req.policy = policy;
    req.probe = probe;
    req.phys = &phys;
    req.nodes = &nodes;
    Result<SharedOutcome> outcome = ExecuteSharedClass(req);
    return ClassRun{std::move(outcome), disk.stats(), phys.ShapeHash()};
  }

  void ExpectClassInvariant(const std::vector<const DimensionalQuery*>& hash,
                            const std::vector<const DimensionalQuery*>& index,
                            bool probe, const char* label) {
    const ClassRun reference = RunClass(hash, index, probe, {1, 0});
    ASSERT_TRUE(reference.outcome.ok()) << label;
    for (size_t i = 0; i < reference.outcome->results.size(); ++i) {
      const DimensionalQuery& q =
          i < hash.size() ? *hash[i] : *index[i - hash.size()];
      EXPECT_TRUE(reference.outcome->statuses[i].ok()) << label;
      EXPECT_TRUE(BitIdentical(reference.outcome->results[i],
                               BruteForce(schema_, *table_, q)))
          << label << " Q" << q.id() << " diverged from the brute-force fold";
    }
    for (const DriverConfig& config : Matrix()) {
      const ClassRun run = RunClass(hash, index, probe, config);
      ASSERT_TRUE(run.outcome.ok()) << label << " " << Label(config);
      ASSERT_EQ(run.outcome->results.size(),
                reference.outcome->results.size());
      for (size_t i = 0; i < reference.outcome->results.size(); ++i) {
        EXPECT_EQ(run.outcome->statuses[i].code(),
                  reference.outcome->statuses[i].code())
            << label << " " << Label(config) << " member " << i;
        EXPECT_TRUE(BitIdentical(run.outcome->results[i],
                                 reference.outcome->results[i]))
            << label << " " << Label(config) << " member " << i
            << " diverged";
      }
      EXPECT_EQ(run.stats, reference.stats)
          << label << " " << Label(config) << " charged different I/O";
      EXPECT_EQ(run.shape, reference.shape)
          << label << " " << Label(config) << " executed a different tree";
    }
  }

  StarSchema schema_ = SmallSchema();
  std::unique_ptr<Table> table_;
  std::unique_ptr<MaterializedView> view_;
  std::vector<DimensionalQuery> queries_;
  std::vector<const DimensionalQuery*> query_ptrs_;
};

TEST_F(PhysicalPlanDeterminismTest, SharedScanInvariantAcrossDrivers) {
  ExpectClassInvariant(query_ptrs_, {}, /*probe=*/false, "scan");
}

TEST_F(PhysicalPlanDeterminismTest, SharedIndexInvariantAcrossDrivers) {
  const std::vector<const DimensionalQuery*> members = {
      query_ptrs_[0], query_ptrs_[2], query_ptrs_[4]};
  ExpectClassInvariant({}, members, /*probe=*/true, "index");
}

TEST_F(PhysicalPlanDeterminismTest, SharedHybridInvariantAcrossDrivers) {
  const std::vector<const DimensionalQuery*> hash = {
      query_ptrs_[1], query_ptrs_[3], query_ptrs_[5]};
  const std::vector<const DimensionalQuery*> index = {query_ptrs_[0],
                                                      query_ptrs_[4]};
  ExpectClassInvariant(hash, index, /*probe=*/false, "hybrid");
}

// Single-query chains through the pipeline must reproduce the §3 Fig. 1 /
// Fig. 3 single-query operators bit for bit — including charged I/O.
TEST_F(PhysicalPlanDeterminismTest, SinglesMatchTheStarJoinOracles) {
  for (const DimensionalQuery* q : query_ptrs_) {
    DiskModel oracle_disk;
    const QueryResult oracle =
        testing::HashStarJoin(schema_, *q, *view_, oracle_disk);
    for (const size_t batch_rows : {size_t{1}, size_t{1024}}) {
      DiskModel disk;
      Executor exec(schema_, disk);
      ParallelPolicy policy;
      policy.batch.batch_rows = batch_rows;
      exec.set_parallel_policy(policy);
      PhysicalPlan phys;
      const Result<QueryResult> mine =
          exec.ExecuteSingle(*q, *view_, JoinMethod::kHashScan, &phys);
      ASSERT_TRUE(mine.ok()) << "q" << q->id();
      EXPECT_TRUE(BitIdentical(mine.value(), oracle))
          << "hash single q" << q->id() << " batch " << batch_rows;
      EXPECT_EQ(disk.stats(), oracle_disk.stats())
          << "hash single q" << q->id() << " batch " << batch_rows;
    }
  }
  for (const DimensionalQuery* q :
       {query_ptrs_[0], query_ptrs_[2], query_ptrs_[4]}) {
    DiskModel oracle_disk;
    const QueryResult oracle =
        testing::IndexStarJoin(schema_, *q, *view_, oracle_disk);
    for (const size_t batch_rows : {size_t{1}, size_t{1024}}) {
      DiskModel disk;
      Executor exec(schema_, disk);
      ParallelPolicy policy;
      policy.batch.batch_rows = batch_rows;
      exec.set_parallel_policy(policy);
      PhysicalPlan phys;
      const Result<QueryResult> mine =
          exec.ExecuteSingle(*q, *view_, JoinMethod::kIndexProbe, &phys);
      ASSERT_TRUE(mine.ok()) << "q" << q->id();
      EXPECT_TRUE(BitIdentical(mine.value(), oracle))
          << "index single q" << q->id() << " batch " << batch_rows;
      EXPECT_EQ(disk.stats(), oracle_disk.stats())
          << "index single q" << q->id() << " batch " << batch_rows;
    }
  }
}

// The unshared baseline (one single-query chain per member) under the full
// driver matrix: same bits, same I/O, same executed shape.
TEST_F(PhysicalPlanDeterminismTest, UnsharedBaselineInvariantAcrossDrivers) {
  GlobalPlan plan;
  plan.classes.push_back(ClassPlan{});
  plan.classes[0].base = view_.get();
  for (size_t i = 0; i < query_ptrs_.size(); ++i) {
    LocalPlan lp;
    lp.query = query_ptrs_[i];
    lp.method = (i % 2 == 0 && i < 5) ? JoinMethod::kIndexProbe
                                      : JoinMethod::kHashScan;
    plan.classes[0].members.push_back(lp);
  }

  std::vector<ExecutedQuery> reference;
  IoStats reference_stats;
  std::string reference_shape;
  {
    DiskModel disk;
    Executor exec(schema_, disk);
    PhysicalPlan phys;
    reference = exec.ExecutePlanUnshared(plan, &phys);
    reference_stats = disk.stats();
    reference_shape = phys.ShapeHash();
    for (const auto& r : reference) {
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(
          BitIdentical(r.result, BruteForce(schema_, *table_, *r.query)))
          << "unshared Q" << r.query->id()
          << " diverged from the brute-force fold";
    }
  }
  for (const DriverConfig& config : Matrix()) {
    std::unique_ptr<ThreadPool> pool;
    DiskModel disk;
    Executor exec(schema_, disk);
    exec.set_parallel_policy(PolicyFor(config, pool));
    PhysicalPlan phys;
    const std::vector<ExecutedQuery> run = exec.ExecutePlanUnshared(plan, &phys);
    ASSERT_EQ(run.size(), reference.size());
    for (size_t i = 0; i < run.size(); ++i) {
      ASSERT_TRUE(run[i].ok()) << Label(config);
      EXPECT_EQ(run[i].query, reference[i].query);
      EXPECT_TRUE(BitIdentical(run[i].result, reference[i].result))
          << "unshared " << Label(config) << " Q" << run[i].query->id();
    }
    EXPECT_EQ(disk.stats(), reference_stats) << "unshared " << Label(config);
    EXPECT_EQ(phys.ShapeHash(), reference_shape) << "unshared "
                                                 << Label(config);
  }
}

// View builds execute the lowered Aggregate <- Scan tree under the same
// matrix: one-target and shared builds, serial and morsel-parallel, all emit
// the reference build's tables bit for bit and charge exactly its I/O.
TEST_F(PhysicalPlanDeterminismTest, ViewBuildsInvariantAcrossDrivers) {
  std::vector<GroupBySpec> targets;
  for (const char* text : {"X'Y'Z", "X''Z'", "Y'"}) {
    targets.push_back(GroupBySpec::Parse(text, schema_).value());
  }
  const testing::ReferenceViews ref_one = testing::ReferenceBuild(
      schema_, {view_.get()}, {targets[0]}, false, false);
  const testing::ReferenceViews ref_many = testing::ReferenceBuild(
      schema_, {view_.get()}, targets, false, false);

  for (const DriverConfig& config : Matrix()) {
    std::unique_ptr<ThreadPool> pool;
    ViewBuilder builder(schema_);
    builder.set_parallel_policy(PolicyFor(config, pool));

    DiskModel one_disk;
    const std::vector<std::unique_ptr<Table>> one =
        builder.Build(*view_, {targets[0]}, one_disk).value();
    ExpectTablesBitIdentical(*one[0], *ref_one.tables[0], Label(config));
    EXPECT_EQ(one_disk.stats(), ref_one.io) << Label(config);

    DiskModel many_disk;
    const std::vector<std::unique_ptr<Table>> many =
        builder.Build(*view_, targets, many_disk).value();
    ASSERT_EQ(many.size(), ref_many.tables.size());
    for (size_t i = 0; i < many.size(); ++i) {
      ExpectTablesBitIdentical(*many[i], *ref_many.tables[i], Label(config));
    }
    EXPECT_EQ(many_disk.stats(), ref_many.io) << Label(config);
  }
}

// End to end through the Engine: the executed tree's shape equals the
// planning-time LowerGlobalPlan of the same plan, at every driver config,
// and the results never move.
TEST(PhysicalPlanEngineTest, ExecutedShapeEqualsLoweredShapeUnderAnyDriver) {
  Engine engine(StarSchema::PaperTestSchema());
  PaperWorkload::Setup(engine, /*rows=*/30'000, /*seed=*/7);
  std::vector<DimensionalQuery> queries =
      PaperWorkload::MakeQueries(engine, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const GlobalPlan plan =
      engine.Optimize(queries, OptimizerKind::kGlobalGreedy);

  PhysicalPlan lowered;
  LowerGlobalPlan(lowered, plan, engine.schema());
  const std::string lowered_shape = lowered.ShapeHash();

  engine.ConsumeIoStats();
  std::map<int, QueryResult> reference;
  for (auto& r : engine.Execute(plan)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    reference.emplace(r.query->id(), std::move(r.result));
  }
  const IoStats reference_stats = engine.ConsumeIoStats();
  EXPECT_EQ(engine.last_physical_plan().ShapeHash(), lowered_shape);

  for (const size_t threads : {1u, 4u}) {
    for (const size_t batch_rows : {size_t{1}, size_t{1024}}) {
      engine.set_parallelism(threads);
      engine.set_batch_rows(batch_rows);
      for (auto& r : engine.Execute(plan)) {
        ASSERT_TRUE(r.ok()) << r.status.ToString();
        EXPECT_TRUE(BitIdentical(r.result, reference.at(r.query->id())))
            << "Q" << r.query->id() << " threads=" << threads
            << " batch=" << batch_rows;
      }
      EXPECT_EQ(engine.ConsumeIoStats(), reference_stats)
          << "threads=" << threads << " batch=" << batch_rows;
      EXPECT_EQ(engine.last_physical_plan().ShapeHash(), lowered_shape)
          << "executed tree drifted from the lowered plan at threads="
          << threads << " batch=" << batch_rows;
    }
  }
  engine.set_parallelism(1);
  engine.set_batch_rows(kDefaultBatchRows);
}

}  // namespace
}  // namespace starshare
