// Memory-budgeted aggregation (DESIGN.md "Memory budget and spilling"):
// under any budget, thread count and batch size the spilling path must
// produce BIT-identical results to the unbudgeted in-memory path and charge
// exactly the same modeled IoStats (spill I/O is real scratch-file I/O and
// never enters the disk model). Scratch files are removed on success and on
// every failure path, and an injected spill/grant fault costs exactly the
// affected member — its shared-class siblings and the engine's fact-table
// fallback keep working.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "core/paper_workload.h"
#include "cube/view_builder.h"
#include "exec/memory_budget.h"
#include "exec/operators/class_pipeline.h"
#include "exec/spill.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::MakeQuery;
using testing::SmallSchema;

size_t NumScratchFiles(const std::filesystem::path& dir) {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++n;
  }
  return n;
}

uint64_t SpillRuns() { return obs::Metrics().counter("exec.spill.runs").value(); }

class SpillAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGenerator gen(schema_, {.num_rows = 50'000, .seed = 271});
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
    queries_.push_back(
        MakeQuery(schema_, 2, "X''Y''Z'", {{"Y", 0, {1, 3, 5, 7}}}));
    queries_.push_back(MakeQuery(schema_, 3, "XY'Z'", {{"Z", 1, {0}}},
                                 AggOp::kMin));
    queries_.push_back(MakeQuery(schema_, 4, "X'Z'", {}));
    for (const auto& q : queries_) query_ptrs_.push_back(&q);
    scratch_ = std::filesystem::temp_directory_path() /
               ("starshare_spill_test_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()));
    std::filesystem::remove_all(scratch_);
    std::filesystem::create_directories(scratch_);
  }

  void TearDown() override {
    FaultInjector::Instance().Disable();
    std::filesystem::remove_all(scratch_);
  }

  // One shared class over `hash`/`index` members with an optional budget.
  SharedOutcome Run(const std::vector<const DimensionalQuery*>& hash,
                    const std::vector<const DimensionalQuery*>& index,
                    DiskModel& disk, const MemoryBudget* budget,
                    ThreadPool* pool = nullptr, size_t threads = 1,
                    size_t batch_rows = kDefaultBatchRows) {
    SharedClassRequest req;
    req.schema = &schema_;
    req.hash_queries = hash;
    req.index_queries = index;
    req.view = view_.get();
    req.disk = &disk;
    req.policy.batch.batch_rows = batch_rows;
    if (pool != nullptr) {
      req.policy.pool = pool;
      req.policy.parallelism = threads;
    }
    req.probe = hash.empty();
    req.budget = budget;
    req.spill.scratch_dir = scratch_.string();
    auto out = ExecuteSharedClass(req);
    SS_CHECK_MSG(out.ok(), "%s", out.status().ToString().c_str());
    return std::move(out.value());
  }

  StarSchema schema_ = SmallSchema();
  std::unique_ptr<Table> table_;
  std::unique_ptr<MaterializedView> view_;
  std::vector<DimensionalQuery> queries_;
  std::vector<const DimensionalQuery*> query_ptrs_;
  std::filesystem::path scratch_;
};

TEST_F(SpillAggregateTest, BitIdenticalAtAnyBudgetThreadCountAndBatchSize) {
  DiskModel oracle_disk;
  const SharedOutcome oracle =
      Run(query_ptrs_, {}, oracle_disk, /*budget=*/nullptr);
  for (const auto& s : oracle.statuses) ASSERT_TRUE(s.ok());

  // 1 byte: every batch spills. 4 KiB: a few runs per member. 1 MiB split
  // four ways: some members spill, some don't.
  for (const uint64_t budget_bytes : {uint64_t{1}, uint64_t{4096},
                                      uint64_t{1} << 20}) {
    MemoryBudget budget(budget_bytes);
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      for (const size_t batch_rows : {size_t{1}, size_t{1024}}) {
        ThreadPool pool(threads);
        DiskModel disk;
        const uint64_t runs_before = SpillRuns();
        const SharedOutcome budgeted =
            Run(query_ptrs_, {}, disk, &budget, &pool, threads, batch_rows);
        const std::string label =
            "budget=" + std::to_string(budget_bytes) +
            " threads=" + std::to_string(threads) +
            " batch=" + std::to_string(batch_rows);
        EXPECT_GT(SpillRuns(), runs_before)
            << label << " never spilled — the budget did nothing";
        ASSERT_EQ(budgeted.results.size(), oracle.results.size());
        for (size_t i = 0; i < oracle.results.size(); ++i) {
          ASSERT_TRUE(budgeted.statuses[i].ok()) << label << " member " << i;
          EXPECT_TRUE(BitIdentical(budgeted.results[i], oracle.results[i]))
              << label << " member " << i << " diverged from in-memory";
        }
        EXPECT_EQ(disk.stats(), oracle_disk.stats())
            << label << " changed modeled I/O — spill I/O leaked into the "
            << "disk model";
        EXPECT_EQ(NumScratchFiles(scratch_), 0u)
            << label << " left scratch files behind";
      }
    }
  }
}

TEST_F(SpillAggregateTest, IndexProbeMembersSpillBitIdentically) {
  std::vector<const DimensionalQuery*> members = {query_ptrs_[0],
                                                  query_ptrs_[2]};
  DiskModel oracle_disk;
  const SharedOutcome oracle = Run({}, members, oracle_disk, nullptr);
  MemoryBudget budget(1);
  DiskModel disk;
  const SharedOutcome budgeted = Run({}, members, disk, &budget);
  for (size_t i = 0; i < members.size(); ++i) {
    ASSERT_TRUE(budgeted.statuses[i].ok());
    EXPECT_TRUE(BitIdentical(budgeted.results[i], oracle.results[i]));
  }
  EXPECT_EQ(disk.stats(), oracle_disk.stats());
}

TEST_F(SpillAggregateTest, EmptyInputSpillsNothingAndSucceeds) {
  DataGenerator gen(schema_, {.num_rows = 0, .seed = 1});
  auto empty_table = gen.Generate("empty");
  empty_table->set_id(2);
  MaterializedView empty_view(schema_, GroupBySpec::Base(schema_),
                              empty_table.get());
  empty_view.ComputeStats(schema_);

  MemoryBudget budget(1);
  SharedClassRequest req;
  req.schema = &schema_;
  req.hash_queries = {query_ptrs_[3]};
  req.view = &empty_view;
  DiskModel disk;
  req.disk = &disk;
  req.budget = &budget;
  req.spill.scratch_dir = scratch_.string();
  const uint64_t runs_before = SpillRuns();
  auto out = ExecuteSharedClass(req);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->statuses[0].ok());
  EXPECT_EQ(out->results[0].num_rows(), 0u);
  EXPECT_EQ(SpillRuns(), runs_before);
  EXPECT_EQ(NumScratchFiles(scratch_), 0u);
}

TEST_F(SpillAggregateTest, SingleGroupSurvivesEveryBatchSpilling) {
  // Everything folds into one output cell while every staged batch spills.
  const DimensionalQuery q =
      MakeQuery(schema_, 9, "X''", {{"X", 2, {0}}});
  DiskModel oracle_disk;
  const SharedOutcome oracle = Run({&q}, {}, oracle_disk, nullptr);
  ASSERT_TRUE(oracle.statuses[0].ok());
  ASSERT_EQ(oracle.results[0].num_rows(), 1u);

  MemoryBudget budget(1);
  DiskModel disk;
  const SharedOutcome budgeted = Run({&q}, {}, disk, &budget);
  ASSERT_TRUE(budgeted.statuses[0].ok());
  EXPECT_TRUE(BitIdentical(budgeted.results[0], oracle.results[0]));
  EXPECT_EQ(disk.stats(), oracle_disk.stats());
}

TEST_F(SpillAggregateTest, ExactlyAtBudgetNeverSpills) {
  // Q4 has no predicate: every row matches, so a single-member class stages
  // exactly 16 bytes per row. A budget of exactly that many bytes must not
  // spill (the cap is inclusive).
  const uint64_t staged_bytes = table_->num_rows() * 16;
  MemoryBudget budget(staged_bytes);
  DiskModel oracle_disk;
  const SharedOutcome oracle = Run({query_ptrs_[3]}, {}, oracle_disk, nullptr);
  const uint64_t runs_before = SpillRuns();
  DiskModel disk;
  const SharedOutcome budgeted = Run({query_ptrs_[3]}, {}, disk, &budget);
  ASSERT_TRUE(budgeted.statuses[0].ok());
  EXPECT_EQ(SpillRuns(), runs_before) << "exactly-at-budget must stay in memory";
  EXPECT_TRUE(BitIdentical(budgeted.results[0], oracle.results[0]));

  // One byte less and it has to spill.
  MemoryBudget tight(staged_bytes - 1);
  DiskModel tight_disk;
  const SharedOutcome spilled = Run({query_ptrs_[3]}, {}, tight_disk, &tight);
  ASSERT_TRUE(spilled.statuses[0].ok());
  EXPECT_GT(SpillRuns(), runs_before);
  EXPECT_TRUE(BitIdentical(spilled.results[0], oracle.results[0]));
}

TEST_F(SpillAggregateTest, SpillWriteFaultCostsExactlyThatMember) {
  MemoryBudget budget(4096);
  DiskModel clean_disk;
  const SharedOutcome clean = Run(query_ptrs_, {}, clean_disk, &budget);

  FaultInjector::Instance().Enable(31);
  FaultSpec spec;
  spec.key = 3;  // only Q3's spill writes fail
  FaultInjector::Instance().Arm("spill.write", spec);
  DiskModel disk;
  const SharedOutcome faulted = Run(query_ptrs_, {}, disk, &budget);
  FaultInjector::Instance().Disable();

  for (size_t i = 0; i < query_ptrs_.size(); ++i) {
    if (query_ptrs_[i]->id() == 3) {
      EXPECT_EQ(faulted.statuses[i].code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(faulted.results[i].num_rows(), 0u);
    } else {
      ASSERT_TRUE(faulted.statuses[i].ok()) << "member " << i;
      EXPECT_TRUE(BitIdentical(faulted.results[i], clean.results[i]))
          << "sibling " << i << " was disturbed by Q3's spill fault";
    }
  }
  EXPECT_EQ(NumScratchFiles(scratch_), 0u)
      << "failed member leaked its scratch file";
}

TEST_F(SpillAggregateTest, SpillReadFaultCostsExactlyThatMember) {
  MemoryBudget budget(4096);
  DiskModel clean_disk;
  const SharedOutcome clean = Run(query_ptrs_, {}, clean_disk, &budget);

  for (const FaultKind kind :
       {FaultKind::kError, FaultKind::kShortRead, FaultKind::kBitFlip}) {
    FaultInjector::Instance().Enable(32);
    FaultSpec spec;
    spec.kind = kind;
    spec.key = 2;
    FaultInjector::Instance().Arm("spill.read", spec);
    DiskModel disk;
    const SharedOutcome faulted = Run(query_ptrs_, {}, disk, &budget);
    FaultInjector::Instance().Disable();

    for (size_t i = 0; i < query_ptrs_.size(); ++i) {
      if (query_ptrs_[i]->id() == 2) {
        EXPECT_EQ(faulted.statuses[i].code(), StatusCode::kResourceExhausted)
            << "fault kind " << static_cast<int>(kind);
      } else {
        ASSERT_TRUE(faulted.statuses[i].ok()) << "member " << i;
        EXPECT_TRUE(BitIdentical(faulted.results[i], clean.results[i]));
      }
    }
    EXPECT_EQ(NumScratchFiles(scratch_), 0u);
  }
}

TEST_F(SpillAggregateTest, GrantDenialCostsExactlyThatMember) {
  MemoryBudget budget(1 << 20);
  DiskModel clean_disk;
  const SharedOutcome clean = Run(query_ptrs_, {}, clean_disk, &budget);

  FaultInjector::Instance().Enable(33);
  FaultSpec spec;
  spec.key = 1;
  FaultInjector::Instance().Arm("budget.grant", spec);
  DiskModel disk;
  const SharedOutcome faulted = Run(query_ptrs_, {}, disk, &budget);
  FaultInjector::Instance().Disable();

  for (size_t i = 0; i < query_ptrs_.size(); ++i) {
    if (query_ptrs_[i]->id() == 1) {
      EXPECT_EQ(faulted.statuses[i].code(), StatusCode::kResourceExhausted);
    } else {
      ASSERT_TRUE(faulted.statuses[i].ok()) << "member " << i;
      EXPECT_TRUE(BitIdentical(faulted.results[i], clean.results[i]));
    }
  }
}

TEST_F(SpillAggregateTest, ViewBuilderSpillsBitIdentically) {
  std::vector<GroupBySpec> targets;
  for (const char* text : {"X'Y'Z", "X''Z'", "Y'"}) {
    targets.push_back(GroupBySpec::Parse(text, schema_).value());
  }
  ViewBuilder oracle_builder(schema_);
  DiskModel oracle_disk;
  const auto oracle = oracle_builder.Build(*view_, targets, oracle_disk).value();

  MemoryBudget budget(4096);
  ViewBuilder builder(schema_);
  builder.set_memory_budget(&budget, SpillConfig{scratch_.string()});
  const uint64_t runs_before = SpillRuns();
  DiskModel disk;
  const auto built = builder.Build(*view_, targets, disk).value();
  EXPECT_GT(SpillRuns(), runs_before) << "budgeted build never spilled";
  ASSERT_EQ(built.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(built[i]->num_rows(), oracle[i]->num_rows()) << "target " << i;
    for (uint64_t r = 0; r < oracle[i]->num_rows(); ++r) {
      for (size_t c = 0; c < oracle[i]->num_key_columns(); ++c) {
        ASSERT_EQ(built[i]->key(c, r), oracle[i]->key(c, r));
      }
      for (size_t m = 0; m < oracle[i]->num_measures(); ++m) {
        const double x = built[i]->measure(r, m);
        const double y = oracle[i]->measure(r, m);
        ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
            << "target " << i << " row " << r << " measure " << m;
      }
    }
  }
  EXPECT_EQ(disk.stats(), oracle_disk.stats());
  EXPECT_EQ(NumScratchFiles(scratch_), 0u);

  // Same budget, morsel-parallel build: still bit-identical.
  ThreadPool pool(4);
  builder.set_parallel_policy(ParallelPolicy{&pool, 4, 0, BatchConfig()});
  DiskModel par_disk;
  const auto par = builder.Build(*view_, targets, par_disk).value();
  ASSERT_EQ(par.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(par[i]->num_rows(), oracle[i]->num_rows());
    for (uint64_t r = 0; r < oracle[i]->num_rows(); ++r) {
      for (size_t m = 0; m < oracle[i]->num_measures(); ++m) {
        const double x = par[i]->measure(r, m);
        const double y = oracle[i]->measure(r, m);
        ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0);
      }
    }
  }
  EXPECT_EQ(par_disk.stats(), oracle_disk.stats());
  EXPECT_EQ(NumScratchFiles(scratch_), 0u);
}

TEST_F(SpillAggregateTest, ViewBuilderKeepsStagingAfterAFailedSpillWrite) {
  // A target whose spill write fails keeps staging in memory and spills
  // nothing more; its replay still folds every cell in arrival order, so
  // the real-valued sums stay bit-identical to the unbudgeted build's.
  // Countdown 2: the first run is written and the second write fails.
  // Countdown 4 fails the first target's second write, after its first
  // run reached disk and before more rows arrive.
  std::vector<GroupBySpec> targets;
  for (const char* text : {"X'Y'Z", "X''Z'", "Y'"}) {
    targets.push_back(GroupBySpec::Parse(text, schema_).value());
  }
  ViewBuilder oracle_builder(schema_);
  DiskModel oracle_disk;
  const auto oracle = oracle_builder.Build(*view_, targets, oracle_disk).value();

  MemoryBudget budget(4096);
  for (const int64_t countdown : {int64_t{2}, int64_t{4}}) {
    ViewBuilder builder(schema_);
    builder.set_memory_budget(&budget, SpillConfig{scratch_.string()});
    FaultInjector::Instance().Enable(37);
    FaultSpec spec;
    spec.countdown = countdown;
    FaultInjector::Instance().Arm("spill.write", spec);
    const uint64_t runs_before = SpillRuns();
    DiskModel disk;
    const auto built = builder.Build(*view_, targets, disk).value();
    const uint64_t fires = FaultInjector::Instance().fires("spill.write");
    FaultInjector::Instance().Disable();
    EXPECT_EQ(fires, 1u) << "countdown " << countdown;
    EXPECT_GT(SpillRuns(), runs_before);

    ASSERT_EQ(built.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(built[i]->num_rows(), oracle[i]->num_rows());
      for (uint64_t r = 0; r < oracle[i]->num_rows(); ++r) {
        for (size_t m = 0; m < oracle[i]->num_measures(); ++m) {
          const double x = built[i]->measure(r, m);
          const double y = oracle[i]->measure(r, m);
          ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
              << "countdown " << countdown << " target " << i << " row " << r
              << " measure " << m;
        }
      }
    }
    EXPECT_EQ(disk.stats(), oracle_disk.stats());
    EXPECT_EQ(NumScratchFiles(scratch_), 0u);
  }
}

TEST(SpillEngineTest, ViewBuildSpillReadFailureIsTypedAndRegistersNothing) {
  // A budgeted view build whose spill replay fails returns the stage's
  // status: no view is added and no scratch file is left. View builds key
  // their fault sites -1, so the default (any-key) spec reaches them.
  const auto scratch = std::filesystem::temp_directory_path() /
                       "starshare_spill_view_build_test";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const std::vector<std::string> specs = {"A'B'C'D", "AB''C'"};

  Engine unbudgeted(StarSchema::PaperTestSchema());
  unbudgeted.LoadFactTable({.num_rows = 50'000, .seed = 7});
  auto oracle = unbudgeted.MaterializeViews(specs);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  EngineConfig config;
  config.scratch_dir = scratch.string();
  config.memory_budget_bytes = 4096;
  Engine engine(StarSchema::PaperTestSchema(), config);
  engine.LoadFactTable({.num_rows = 50'000, .seed = 7});
  for (const FaultKind kind :
       {FaultKind::kError, FaultKind::kShortRead, FaultKind::kBitFlip}) {
    SCOPED_TRACE("fault kind " + std::to_string(static_cast<int>(kind)));
    FaultInjector::Instance().Enable(43);
    FaultSpec spec;
    spec.kind = kind;
    FaultInjector::Instance().Arm("spill.read", spec);
    auto failed = engine.MaterializeViews(specs);
    FaultInjector::Instance().Disable();
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().code(), StatusCode::kOk);
    for (const std::string& text : specs) {
      EXPECT_EQ(engine.views().Find(
                    GroupBySpec::Parse(text, engine.schema()).value()),
                nullptr)
          << text << " was registered";
    }
    EXPECT_EQ(NumScratchFiles(scratch), 0u);
  }

  auto built = engine.MaterializeViews(specs);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->size(), oracle->size());
  for (size_t i = 0; i < oracle->size(); ++i) {
    const Table& want = (*oracle)[i]->table();
    const Table& got = (*built)[i]->table();
    ASSERT_EQ(got.num_rows(), want.num_rows()) << specs[i];
    for (uint64_t r = 0; r < want.num_rows(); ++r) {
      for (size_t c = 0; c < want.num_key_columns(); ++c) {
        ASSERT_EQ(got.key(c, r), want.key(c, r));
      }
      for (size_t m = 0; m < want.num_measures(); ++m) {
        const double x = got.measure(r, m);
        const double y = want.measure(r, m);
        ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
            << specs[i] << " row " << r << " measure " << m;
      }
    }
  }
  EXPECT_EQ(NumScratchFiles(scratch), 0u);
  std::filesystem::remove_all(scratch);
}

TEST(SpillEngineTest, BudgetedEngineMatchesUnboundedAndDegradesGracefully) {
  const auto scratch = std::filesystem::temp_directory_path() /
                       "starshare_spill_engine_test";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  EngineConfig config;
  config.scratch_dir = scratch.string();
  Engine engine(StarSchema::PaperTestSchema(), config);
  PaperWorkload::Setup(engine, /*rows=*/30'000, /*seed=*/7);
  std::vector<DimensionalQuery> queries =
      PaperWorkload::MakeQueries(engine, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const GlobalPlan plan =
      engine.Optimize(queries, OptimizerKind::kGlobalGreedy);

  std::map<int, QueryResult> oracle;
  engine.ConsumeIoStats();
  for (auto& r : engine.Execute(plan)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    oracle.emplace(r.query->id(), std::move(r.result));
  }
  const IoStats oracle_stats = engine.ConsumeIoStats();

  // A 64 KiB budget forces widespread spilling; results and modeled I/O
  // must not move.
  engine.set_memory_budget_bytes(64 * 1024);
  for (auto& r : engine.Execute(plan)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_TRUE(BitIdentical(r.result, oracle.at(r.query->id())))
        << "Q" << r.query->id() << " diverged under the budget";
  }
  EXPECT_EQ(engine.ConsumeIoStats(), oracle_stats)
      << "budgeted execution changed modeled I/O";
  EXPECT_TRUE(engine.last_execution_report().clean());
  EXPECT_EQ(NumScratchFiles(scratch), 0u);

  // A spill-write fault on one query degrades it through the fact-table
  // fallback (which, past the one armed fire, spills cleanly itself). A
  // 1-byte budget guarantees every member spills, so the armed fault
  // definitely engages.
  engine.set_memory_budget_bytes(1);
  FaultInjector::Instance().Enable(41);
  FaultSpec spec;
  spec.key = 5;
  spec.max_fires = 1;
  FaultInjector::Instance().Arm("spill.write", spec);
  const auto results = engine.Execute(plan);
  FaultInjector::Instance().Disable();
  // The fallback answers from the fact table, so its fold order (and hence
  // low float bits) legitimately differs from the planned path: compare the
  // degraded query against a fallback oracle instead.
  Executor fallback_executor(engine.schema(), engine.disk());
  bool saw_degraded = false;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << "Q" << r.query->id() << ": "
                        << r.status.ToString();
    if (r.degraded) {
      saw_degraded = true;
      EXPECT_EQ(r.query->id(), 5);
      auto want = fallback_executor.ExecuteSingle(
          *r.query, *engine.base_view(), JoinMethod::kHashScan);
      ASSERT_TRUE(want.ok());
      EXPECT_TRUE(BitIdentical(r.result, want.value()))
          << "Q" << r.query->id() << " degraded result is wrong";
      continue;
    }
    EXPECT_TRUE(BitIdentical(r.result, oracle.at(r.query->id())))
        << "Q" << r.query->id();
  }
  EXPECT_TRUE(saw_degraded) << "the armed spill fault never engaged Q5";
  ASSERT_EQ(engine.last_execution_report().events.size(), 1u);
  EXPECT_EQ(engine.last_execution_report().events[0].error.code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(engine.last_execution_report().events[0].recovered);
  EXPECT_EQ(NumScratchFiles(scratch), 0u)
      << "a degraded query leaked scratch files";

  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace starshare
