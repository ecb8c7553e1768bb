// Batch cube construction: a shared ViewBuilder::Build /
// Engine::MaterializeViews must be byte-identical to one-at-a-time builds
// while scanning the source once.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "cube/view_builder.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::SmallSchema;

TEST(BatchBuilderTest, MatchesIndividualBuilds) {
  StarSchema schema = SmallSchema();
  DiskModel disk;
  DataGenerator gen(schema, {.num_rows = 9000, .seed = 101});
  auto base_table = gen.Generate("base");
  MaterializedView base(schema, GroupBySpec::Base(schema),
                        base_table.get());
  ViewBuilder builder(schema);

  std::vector<GroupBySpec> targets;
  for (const char* text : {"X'Y'Z", "X''Y''", "XZ'", "Y'"}) {
    targets.push_back(GroupBySpec::Parse(text, schema).value());
  }
  const auto batch = builder.Build(base, targets, disk).value();
  ASSERT_EQ(batch.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    const auto single =
        std::move(builder.Build(base, {targets[i]}, disk).value().front());
    ASSERT_EQ(batch[i]->num_rows(), single->num_rows()) << i;
    for (uint64_t r = 0; r < single->num_rows(); ++r) {
      for (size_t c = 0; c < single->num_key_columns(); ++c) {
        ASSERT_EQ(batch[i]->key(c, r), single->key(c, r)) << i;
      }
      ASSERT_NEAR(batch[i]->measure(r), single->measure(r), 1e-9) << i;
    }
  }
}

TEST(BatchBuilderTest, ScansSourceExactlyOnce) {
  StarSchema schema = SmallSchema();
  DiskModel disk;
  DataGenerator gen(schema, {.num_rows = 9000, .seed = 101});
  auto base_table = gen.Generate("base");
  MaterializedView base(schema, GroupBySpec::Base(schema),
                        base_table.get());
  ViewBuilder builder(schema);

  std::vector<GroupBySpec> targets = {
      GroupBySpec::Parse("X'Y'", schema).value(),
      GroupBySpec::Parse("X''Z'", schema).value(),
      GroupBySpec::Parse("Y''", schema).value(),
  };
  disk.ResetStats();
  const auto batch = builder.Build(base, targets, disk).value();
  EXPECT_EQ(disk.stats().seq_pages_read, base_table->num_pages());
  uint64_t written = 0;
  for (const auto& t : batch) written += t->num_pages();
  EXPECT_EQ(disk.stats().pages_written, written);
}

TEST(BatchBuilderTest, ClusteredBatchIsSorted) {
  StarSchema schema = SmallSchema();
  DiskModel disk;
  DataGenerator gen(schema, {.num_rows = 5000, .seed = 103});
  auto base_table = gen.Generate("base");
  MaterializedView base(schema, GroupBySpec::Base(schema),
                        base_table.get());
  ViewBuilder builder(schema);
  const auto batch = builder.Build(
      base, {GroupBySpec::Parse("X'Y'", schema).value()}, disk,
      /*clustered=*/true).value();
  const Table& t = *batch[0];
  for (uint64_t r = 1; r < t.num_rows(); ++r) {
    EXPECT_LT(std::make_pair(t.key(0, r - 1), t.key(1, r - 1)),
              std::make_pair(t.key(0, r), t.key(1, r)));
  }
}

TEST(EngineBatchTest, MaterializeViewsRegistersAll) {
  Engine engine(SmallSchema());
  engine.LoadFactTable({.num_rows = 6000, .seed = 105});
  engine.ConsumeIoStats();
  auto views = engine.MaterializeViews({"X'Y'", "X''Z'", "Y''"});
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  EXPECT_EQ(views.value().size(), 3u);
  const IoStats io = engine.ConsumeIoStats();
  EXPECT_EQ(io.seq_pages_read, engine.base_view()->table().num_pages());
  for (const char* name : {"X'Y'", "X''Z'", "Y''"}) {
    EXPECT_NE(engine.views().FindByName(name), nullptr) << name;
    EXPECT_NE(engine.catalog().Find(name), nullptr) << name;
  }
}

TEST(EngineBatchTest, FailsAtomicallyOnBadSpec) {
  Engine engine(SmallSchema());
  engine.LoadFactTable({.num_rows = 1000, .seed = 105});
  // Second spec is garbage: nothing should be materialized.
  auto views = engine.MaterializeViews({"X'Y'", "NOPE"});
  EXPECT_FALSE(views.ok());
  EXPECT_EQ(engine.views().FindByName("X'Y'"), nullptr);

  // Duplicate spec also fails before any work.
  ASSERT_TRUE(engine.MaterializeView("Y''").ok());
  auto dup = engine.MaterializeViews({"X''", "Y''"});
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(engine.views().FindByName("X''"), nullptr);
}

TEST(EngineBatchTest, EmptyBatchRejected) {
  Engine engine(SmallSchema());
  engine.LoadFactTable({.num_rows = 100, .seed = 105});
  EXPECT_FALSE(engine.MaterializeViews({}).ok());
}

}  // namespace
}  // namespace starshare
