// Engine-wide bit-identity of the compressed page layout (DESIGN.md §14):
// with EngineConfig::compressed_pages on, every query result and every
// built view must be BIT-identical to the uncompressed engine — same
// result doubles, same key rows, same view tables — at any combination of
// {threads} x {batch rows} x {memory budget}. The layouts legitimately
// charge different page counts (that is the point of compression), but
// tuple and probe counts must not move, and within one layout the charged
// IoStats must be invariant across every driver combination.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/paper_workload.h"
#include "plan/plan.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::BitIdentical;
using testing::BruteForce;

// Same forced-class construction the paper benches use: one class on
// `view_name` with an explicit join method per query.
GlobalPlan ForcePlan(Engine& engine,
                     const std::vector<DimensionalQuery>& queries,
                     const std::string& view_name,
                     const std::vector<JoinMethod>& methods) {
  MaterializedView* view = engine.views().FindByName(view_name);
  SS_CHECK_MSG(view != nullptr, "no view named %s", view_name.c_str());
  GlobalPlan plan;
  plan.classes.push_back(ClassPlan{});
  plan.classes[0].base = view;
  for (size_t i = 0; i < queries.size(); ++i) {
    LocalPlan lp;
    lp.query = &queries[i];
    lp.method = methods[i];
    plan.classes[0].members.push_back(lp);
  }
  engine.cost_model().AnnotatePlan(plan);
  return plan;
}

struct EngineUnderTest {
  std::unique_ptr<Engine> engine;
  // The three shared operators of the paper: a pure hash-scan class on the
  // base, a pure index class on A'B'C'D, and the Figure 12 hybrid.
  std::vector<DimensionalQuery> hash_queries;
  std::vector<DimensionalQuery> index_queries;
  std::vector<DimensionalQuery> hybrid_queries;
};

EngineUnderTest MakeEngine(bool compressed) {
  EngineUnderTest e;
  EngineConfig config;
  config.compressed_pages = compressed;
  e.engine = std::make_unique<Engine>(StarSchema::PaperTestSchema(), config);
  PaperWorkload::Setup(*e.engine, 30'000);
  e.hash_queries = PaperWorkload::MakeQueries(*e.engine, {1, 2, 3, 4});
  e.index_queries = PaperWorkload::MakeQueries(*e.engine, {5, 6, 7, 8});
  e.hybrid_queries = PaperWorkload::MakeQueries(*e.engine, {3, 5, 6, 7});
  return e;
}

// Runs the three shared operators and returns results keyed by
// "<operator>/q<id>", plus the total charged IoStats in `io`.
std::map<std::string, QueryResult> RunAll(EngineUnderTest& e, IoStats* io) {
  Engine& engine = *e.engine;
  const std::string indexed = PaperWorkload::IndexedViewSpec();
  const GlobalPlan hash =
      ForcePlan(engine, e.hash_queries, "ABCD",
                std::vector<JoinMethod>(4, JoinMethod::kHashScan));
  const GlobalPlan index =
      ForcePlan(engine, e.index_queries, indexed,
                std::vector<JoinMethod>(4, JoinMethod::kIndexProbe));
  std::vector<JoinMethod> hybrid_methods(4, JoinMethod::kIndexProbe);
  hybrid_methods[0] = JoinMethod::kHashScan;
  const GlobalPlan hybrid =
      ForcePlan(engine, e.hybrid_queries, indexed, hybrid_methods);

  std::map<std::string, QueryResult> out;
  engine.ConsumeIoStats();
  const auto run = [&](const char* label, const GlobalPlan& plan) {
    for (auto& r : engine.Execute(plan)) {
      EXPECT_TRUE(r.ok()) << label << ": " << r.status.ToString();
      out.emplace(std::string(label) + "/q" + std::to_string(r.query->id()),
                  std::move(r.result));
    }
  };
  run("hash", hash);
  run("index", index);
  run("hybrid", hybrid);
  *io = engine.ConsumeIoStats();
  return out;
}

TEST(CompressedIdentityTest, FullMatrixBitIdenticalToUncompressed) {
  EngineUnderTest plain = MakeEngine(false);
  EngineUnderTest packed = MakeEngine(true);
  ASSERT_TRUE(packed.engine->base_view()->table().compressed());
  ASSERT_FALSE(plain.engine->base_view()->table().compressed());

  // Compression must actually shrink the modeled geometry.
  EXPECT_LT(packed.engine->base_view()->table().num_pages(),
            plain.engine->base_view()->table().num_pages());

  // Reference point: serial, default batch, unbounded — uncompressed.
  IoStats plain_io;
  const auto oracle = RunAll(plain, &plain_io);

  IoStats first_packed_io;
  bool have_packed_io = false;
  for (const size_t threads : {1u, 4u}) {
    for (const size_t batch_rows : {1u, 1024u}) {
      for (const uint64_t budget : {uint64_t{0}, uint64_t{64} * 1024}) {
        const std::string label =
            "threads=" + std::to_string(threads) +
            " batch=" + std::to_string(batch_rows) +
            " budget=" + std::to_string(budget);
        packed.engine->set_parallelism(threads);
        packed.engine->set_batch_rows(batch_rows);
        packed.engine->set_memory_budget_bytes(budget);

        IoStats io;
        const auto got = RunAll(packed, &io);
        ASSERT_EQ(got.size(), oracle.size()) << label;
        for (const auto& [key, result] : oracle) {
          const auto it = got.find(key);
          ASSERT_NE(it, got.end()) << label << " missing " << key;
          EXPECT_TRUE(BitIdentical(result, it->second))
              << key << " diverged from the uncompressed engine (" << label
              << ")";
        }

        // Within the compressed layout, charged I/O is driver-invariant.
        if (!have_packed_io) {
          first_packed_io = io;
          have_packed_io = true;
        } else {
          EXPECT_EQ(io, first_packed_io)
              << label << " changed the compressed layout's charged I/O";
        }
      }
    }
  }

  // Across layouts the data volume is identical; only pages shrink.
  EXPECT_EQ(first_packed_io.tuples_processed, plain_io.tuples_processed);
  EXPECT_EQ(first_packed_io.hash_probes, plain_io.hash_probes);
  EXPECT_LT(first_packed_io.seq_pages_read, plain_io.seq_pages_read);
}

TEST(CompressedIdentityTest, ViewBuildsBitIdenticalAcrossLayouts) {
  // PaperWorkload::Setup already built every Table 1 view in both engines;
  // the emitted cells must agree bit-for-bit (layout changes how key bytes
  // are stored, never which cells exist or their measure doubles).
  EngineUnderTest plain = MakeEngine(false);
  EngineUnderTest packed = MakeEngine(true);
  for (const std::string& spec : PaperWorkload::ViewSpecs()) {
    const Table* a = plain.engine->catalog().Find(spec);
    const Table* b = packed.engine->catalog().Find(spec);
    ASSERT_NE(a, nullptr) << spec;
    ASSERT_NE(b, nullptr) << spec;
    ASSERT_EQ(a->num_rows(), b->num_rows()) << spec;
    ASSERT_EQ(a->num_key_columns(), b->num_key_columns()) << spec;
    EXPECT_FALSE(a->compressed()) << spec;
    EXPECT_TRUE(b->compressed()) << spec;
    for (uint64_t r = 0; r < a->num_rows(); ++r) {
      for (size_t c = 0; c < a->num_key_columns(); ++c) {
        ASSERT_EQ(a->key(c, r), b->key(c, r)) << spec << " row " << r;
      }
      const double x = a->measure(r), y = b->measure(r);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << spec << " row " << r << " measure differs";
    }
  }
}

TEST(CompressedIdentityTest, CompressedEngineMatchesBruteForceOracle) {
  // Single-query oracle: the compressed engine against a direct scan of
  // its own (compressed) base table AND of the uncompressed engine's base.
  EngineUnderTest plain = MakeEngine(false);
  EngineUnderTest packed = MakeEngine(true);
  for (int id = 0; id < 4; ++id) {
    const DimensionalQuery& q = packed.hash_queries[id];
    const std::vector<DimensionalQuery> one{q};
    const GlobalPlan plan =
        ForcePlan(*packed.engine, one, "ABCD", {JoinMethod::kHashScan});
    auto results = packed.engine->Execute(plan);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok()) << results[0].status.ToString();
    const QueryResult via_packed = BruteForce(
        packed.engine->schema(), packed.engine->base_view()->table(), q);
    const QueryResult via_plain = BruteForce(
        plain.engine->schema(), plain.engine->base_view()->table(), q);
    EXPECT_TRUE(results[0].result.ApproxEquals(via_packed))
        << "q" << q.id() << " vs compressed-base oracle";
    EXPECT_TRUE(via_packed.ApproxEquals(via_plain))
        << "q" << q.id()
        << ": decoding the compressed base changed the scanned values";
  }
}

}  // namespace
}  // namespace starshare
