// Table file I/O and cube save/load round trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.h"
#include "core/engine.h"
#include "storage/table_io.h"
#include "tests/test_util.h"
#include "tests/view_identity.h"

namespace starshare {
namespace {

using testing::BruteForce;
using testing::ExpectSameStatsAndIndexes;
using testing::ExpectSameTable;
using testing::MakeQuery;
using testing::SmallSchema;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("starshare_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PersistenceTest, TableRoundTrip) {
  Table original("t", {"a", "b"}, "m");
  for (int32_t r = 0; r < 1000; ++r) {
    const int32_t keys[] = {r % 7, r % 11};
    original.AppendRow(keys, r * 0.5);
  }
  const std::string path = (dir_ / "t.sstb").string();
  ASSERT_TRUE(WriteTableFile(original, path).ok());

  auto loaded = ReadTableFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& t = *loaded.value();
  EXPECT_EQ(t.name(), "t");
  EXPECT_EQ(t.measure_name(), "m");
  ASSERT_EQ(t.num_key_columns(), 2u);
  EXPECT_EQ(t.key_column_name(0), "a");
  ASSERT_EQ(t.num_rows(), 1000u);
  for (uint64_t r = 0; r < 1000; ++r) {
    ASSERT_EQ(t.key(0, r), original.key(0, r));
    ASSERT_EQ(t.key(1, r), original.key(1, r));
    ASSERT_DOUBLE_EQ(t.measure(r), original.measure(r));
  }
}

TEST_F(PersistenceTest, EmptyTableRoundTrip) {
  Table original("empty", {"k"}, "m");
  const std::string path = (dir_ / "e.sstb").string();
  ASSERT_TRUE(WriteTableFile(original, path).ok());
  auto loaded = ReadTableFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->num_rows(), 0u);
}

TEST_F(PersistenceTest, ReadErrors) {
  EXPECT_EQ(ReadTableFile((dir_ / "missing.sstb").string()).status().code(),
            StatusCode::kNotFound);

  // Not a table file.
  const std::string junk = (dir_ / "junk.sstb").string();
  FILE* f = std::fopen(junk.c_str(), "wb");
  std::fwrite("garbage", 1, 7, f);
  std::fclose(f);
  EXPECT_EQ(ReadTableFile(junk).status().code(),
            StatusCode::kInvalidArgument);

  // Truncated file: the v3 size cross-check flags it as corruption.
  Table t("t", {"k"}, "m");
  const int32_t key = 1;
  for (int i = 0; i < 100; ++i) t.AppendRow(&key, 1.0);
  const std::string path = (dir_ / "trunc.sstb").string();
  ASSERT_TRUE(WriteTableFile(t, path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  EXPECT_EQ(ReadTableFile(path).status().code(), StatusCode::kCorruption);
}

// Flips one bit in the file at `offset` bytes from the start (negative:
// from the end).
void FlipBitAt(const std::filesystem::path& path, int64_t offset) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(offset), offset < 0 ? SEEK_END : SEEK_SET);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
}

TEST_F(PersistenceTest, LoadCubeSkipsCorruptViewFile) {
  Engine original(SmallSchema());
  original.LoadFactTable({.num_rows = 4000, .seed = 33});
  ASSERT_TRUE(original.MaterializeView("X'Y'").ok());
  ASSERT_TRUE(original.MaterializeView("X''Z'").ok());
  ASSERT_TRUE(original.SaveCube(dir_.string()).ok());

  // view_0 is the base; corrupt one of the derived views.
  FlipBitAt(dir_ / "view_1.sstb", -64);

  // Strict load fails with a typed corruption status...
  Engine strict(SmallSchema());
  EXPECT_EQ(strict.LoadCube(dir_.string()).code(), StatusCode::kCorruption);

  // ...while a lenient load skips the damaged (rebuildable) view and
  // still answers queries correctly from what survived.
  Engine lenient(SmallSchema());
  std::vector<std::string> skipped;
  ASSERT_TRUE(lenient.LoadCube(dir_.string(), &skipped).ok());
  EXPECT_EQ(skipped.size(), 1u);
  EXPECT_EQ(lenient.views().size(), 2u);
  std::vector<DimensionalQuery> queries;
  queries.push_back(
      MakeQuery(lenient.schema(), 1, "X'Y''", {{"X", 2, {0}}}));
  const auto results = lenient.ExecuteNaive(queries);
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(results[0].result.ApproxEquals(BruteForce(
      lenient.schema(), lenient.base_view()->table(), queries[0])));
}

// Rewrites the table file at `path` through WriteTableFile, so every CRC
// is valid, keeping the first `keep_cols` key columns and setting key
// column `col` of row 0 to `key`.
void RewriteTableFile(const std::filesystem::path& path, size_t keep_cols,
                      size_t col, int32_t key) {
  Result<std::unique_ptr<Table>> read = ReadTableFile(path.string());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const Table& in = *read.value();
  ASSERT_LE(keep_cols, in.num_key_columns());
  ASSERT_LT(col, keep_cols);
  std::vector<std::string> key_names;
  for (size_t c = 0; c < keep_cols; ++c) {
    key_names.push_back(in.key_column_name(c));
  }
  std::vector<std::string> measure_names;
  for (size_t m = 0; m < in.num_measures(); ++m) {
    measure_names.push_back(in.measure_name(m));
  }
  Table out(in.name(), key_names, measure_names);
  std::vector<int32_t> keys(keep_cols);
  std::vector<double> measures(in.num_measures());
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    for (size_t c = 0; c < keep_cols; ++c) keys[c] = in.key(c, r);
    for (size_t m = 0; m < measures.size(); ++m) {
      measures[m] = in.measure(r, m);
    }
    if (r == 0) keys[col] = key;
    out.AppendRowM(keys.data(), measures.data());
  }
  out.SetCompressed(in.compressed());
  ASSERT_TRUE(WriteTableFile(out, path.string()).ok());
}

// Saves a base plus the X'Y' and X''Z' views into `dir`.
void SaveSmallCube(const std::filesystem::path& dir) {
  Engine original(SmallSchema());
  original.LoadFactTable({.num_rows = 4000, .seed = 35});
  ASSERT_TRUE(original.MaterializeView("X'Y'").ok());
  ASSERT_TRUE(original.MaterializeView("X''Z'").ok());
  ASSERT_TRUE(original.SaveCube(dir.string()).ok());
}

// A strict load of `dir` fails with kCorruption; a lenient one skips the
// one bad view and answers from the rest like brute force.
void ExpectViewRejectedAndSkipped(const std::filesystem::path& dir) {
  Engine strict(SmallSchema());
  EXPECT_EQ(strict.LoadCube(dir.string()).code(), StatusCode::kCorruption);

  Engine lenient(SmallSchema());
  std::vector<std::string> skipped;
  ASSERT_TRUE(lenient.LoadCube(dir.string(), &skipped).ok());
  EXPECT_EQ(skipped, std::vector<std::string>{"X'Y'"});
  EXPECT_EQ(lenient.views().size(), 2u);
  std::vector<DimensionalQuery> queries;
  queries.push_back(
      MakeQuery(lenient.schema(), 1, "X'Y''", {{"X", 2, {0}}}));
  const auto results = lenient.ExecuteNaive(queries);
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(results[0].result.ApproxEquals(BruteForce(
      lenient.schema(), lenient.base_view()->table(), queries[0])));
}

TEST_F(PersistenceTest, LoadCubeRejectsViewWithMissingKeyColumn) {
  // view_1 is X'Y': two key columns. Written back with one, every CRC
  // still checks out; only the manifest's spec can tell.
  SaveSmallCube(dir_);
  RewriteTableFile(dir_ / "view_1.sstb", /*keep_cols=*/1, /*col=*/0,
                   /*key=*/0);
  ExpectViewRejectedAndSkipped(dir_);
}

TEST_F(PersistenceTest, LoadCubeRejectsOutOfDomainKeys) {
  for (const int32_t bad_key : {100000, -5}) {
    SCOPED_TRACE("key " + std::to_string(bad_key));
    // In a view: X' has 4 members.
    std::filesystem::remove_all(dir_);
    SaveSmallCube(dir_);
    RewriteTableFile(dir_ / "view_1.sstb", /*keep_cols=*/2, /*col=*/0,
                     bad_key);
    ExpectViewRejectedAndSkipped(dir_);

    // In the base: always a hard error, lenient or not.
    std::filesystem::remove_all(dir_);
    SaveSmallCube(dir_);
    RewriteTableFile(dir_ / "view_0.sstb", /*keep_cols=*/3, /*col=*/0,
                     bad_key);
    Engine strict(SmallSchema());
    EXPECT_EQ(strict.LoadCube(dir_.string()).code(), StatusCode::kCorruption);
    Engine lenient(SmallSchema());
    std::vector<std::string> skipped;
    EXPECT_EQ(lenient.LoadCube(dir_.string(), &skipped).code(),
              StatusCode::kCorruption);
    EXPECT_TRUE(skipped.empty());
  }
}

// Rewrites the table file at `path` with its key column names reversed
// and every column as it was.
void ReverseKeyColumnNames(const std::filesystem::path& path) {
  Result<std::unique_ptr<Table>> read = ReadTableFile(path.string());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const Table& in = *read.value();
  std::vector<std::string> key_names;
  std::vector<KeyColumn> keys;
  for (size_t c = 0; c < in.num_key_columns(); ++c) {
    key_names.insert(key_names.begin(), in.key_column_name(c));
    keys.push_back(in.key_column(c));
  }
  std::vector<std::string> measure_names;
  std::vector<std::vector<double>> measures;
  for (size_t m = 0; m < in.num_measures(); ++m) {
    measure_names.push_back(in.measure_name(m));
    measures.push_back(in.measure_column(m));
  }
  Table out(in.name(), key_names, measure_names);
  out.AdoptColumns(std::move(keys), std::move(measures), in.compressed());
  ASSERT_TRUE(WriteTableFile(out, path.string()).ok());
}

TEST_F(PersistenceTest, LoadCubeRejectsPermutedKeyColumns) {
  // X' and Y' share a domain, so a view file whose key columns are named
  // Y', X' fits every other check; its names tell.
  SaveSmallCube(dir_);
  ReverseKeyColumnNames(dir_ / "view_1.sstb");
  ExpectViewRejectedAndSkipped(dir_);

  // The base: always a hard error.
  std::filesystem::remove_all(dir_);
  SaveSmallCube(dir_);
  ReverseKeyColumnNames(dir_ / "view_0.sstb");
  Engine strict(SmallSchema());
  EXPECT_EQ(strict.LoadCube(dir_.string()).code(), StatusCode::kCorruption);
  Engine lenient(SmallSchema());
  std::vector<std::string> skipped;
  EXPECT_EQ(lenient.LoadCube(dir_.string(), &skipped).code(),
            StatusCode::kCorruption);
}

// Integer facts with X in [x_lo, x_lo + x_span) and Y, Z over their whole
// base domains.
std::unique_ptr<Table> FactsWithX(const StarSchema& schema, uint64_t rows,
                                  uint64_t seed, int32_t x_lo,
                                  uint32_t x_span) {
  auto table = std::make_unique<Table>(
      "facts", GroupBySpec::Base(schema).KeyColumnNames(schema),
      schema.measure_names());
  Rng rng(seed);
  for (uint64_t r = 0; r < rows; ++r) {
    const int32_t keys[] = {
        x_lo + static_cast<int32_t>(rng.NextBounded(x_span)),
        static_cast<int32_t>(rng.NextBounded(12)),
        static_cast<int32_t>(rng.NextBounded(12))};
    table->AppendRow(keys, static_cast<double>(rng.NextBounded(1000)));
  }
  return table;
}

TEST_F(PersistenceTest, AppendAfterLoadMatchesNeverSaved) {
  // A loaded table's packed frame may be wider than its values need.
  // Appends to it must still give what the same appends give on an engine
  // that never saved: the same packed words, frames, page counts,
  // statistics and RID lists, whether a delta stays in the frame or lowers
  // it. Each delta is a fact table or, for -1, generated facts (X reaches 0).
  struct Delta {
    int32_t x_lo;
    uint32_t x_span;
  };
  const auto check = [&](const std::string& label, int32_t x_lo,
                         uint32_t x_span, const std::vector<Delta>& deltas) {
    SCOPED_TRACE(label);
    const auto build = [&](Engine& engine) {
      ASSERT_TRUE(engine
                      .AttachFactTable(FactsWithX(engine.schema(), 3000, 71,
                                                  x_lo, x_span))
                      .ok());
      ASSERT_TRUE(engine.MaterializeView("X'Y'").ok());
      ASSERT_TRUE(engine.MaterializeView("X''Z'", /*clustered=*/true).ok());
    };
    const std::string dir = (dir_ / label).string();
    Engine saved(SmallSchema());
    build(saved);
    ASSERT_TRUE(saved.SaveCube(dir).ok());
    Engine loaded(SmallSchema());
    ASSERT_TRUE(loaded.LoadCube(dir).ok());
    Engine never(SmallSchema());
    build(never);
    for (Engine* engine : {&loaded, &never}) {
      ASSERT_TRUE(engine->BuildIndexes("X'Y'", {"X", "Y"}).ok());
      ASSERT_TRUE(engine->BuildIndexes("XYZ", {"X"}).ok());
    }

    for (size_t round = 0; round < deltas.size(); ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const Delta& delta = deltas[round];
      for (Engine* engine : {&loaded, &never}) {
        const Status appended =
            delta.x_lo >= 0
                ? engine->AppendFactTable(FactsWithX(engine->schema(), 400,
                                                     73 + round, delta.x_lo,
                                                     delta.x_span))
                : engine->AppendFacts({.num_rows = 400,
                                       .seed = 74u + round,
                                       .integer_measures = true});
        ASSERT_TRUE(appended.ok()) << appended.ToString();
      }
      for (const char* name : {"facts", "X'Y'", "X''Z'"}) {
        const MaterializedView* got = loaded.views().FindByName(name);
        const MaterializedView* want = never.views().FindByName(name);
        ASSERT_NE(got, nullptr);
        ASSERT_NE(want, nullptr);
        ExpectSameTable(got->table(), want->table(), name);
        EXPECT_EQ(got->table().num_pages(), want->table().num_pages())
            << name;
        ExpectSameStatsAndIndexes(loaded.schema(), *got, *want, name);
      }
    }
  };
  // X in [4, 11] fills the base's 3-bit frame; the X'Y' view packs X' at
  // ref 1 in a frame whose window reaches past its largest value. One
  // in-frame append, then two generated ones that lower the frames.
  check("fills_width", 4, 8, {{4, 8}, {-1, 0}, {-1, 0}});
  // X in [2, 6] packs at 3 bits, window [2, 9]; a delta with X in [0, 2]
  // lowers the frame and still fits 3 bits, which only the exact range
  // shows.
  check("window_wider", 2, 5, {{2, 5}, {0, 3}, {-1, 0}});
}

TEST_F(PersistenceTest, LoadCubeCorruptBaseAlwaysFails) {
  Engine original(SmallSchema());
  original.LoadFactTable({.num_rows = 4000, .seed = 34});
  ASSERT_TRUE(original.SaveCube(dir_.string()).ok());
  FlipBitAt(dir_ / "view_0.sstb", -64);

  Engine loaded(SmallSchema());
  std::vector<std::string> skipped;
  // The base fact table is not rebuildable, so even the lenient load
  // must refuse.
  EXPECT_EQ(loaded.LoadCube(dir_.string(), &skipped).code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(skipped.empty());
}

TEST_F(PersistenceTest, CubeSaveLoadRoundTrip) {
  Engine original(SmallSchema());
  original.LoadFactTable({.num_rows = 8000, .seed = 121});
  ASSERT_TRUE(original.MaterializeView("X'Y'").ok());
  ASSERT_TRUE(original.MaterializeView("X''Z'", /*clustered=*/true).ok());
  ASSERT_TRUE(original.SaveCube(dir_.string()).ok());

  Engine loaded(SmallSchema());
  ASSERT_TRUE(loaded.LoadCube(dir_.string()).ok());
  EXPECT_EQ(loaded.views().size(), 3u);
  EXPECT_EQ(loaded.base_view()->table().num_rows(), 8000u);
  MaterializedView* clustered = loaded.views().FindByName("X''Z'");
  ASSERT_NE(clustered, nullptr);
  EXPECT_TRUE(clustered->clustered());
  EXPECT_FALSE(loaded.views().FindByName("X'Y'")->clustered());
  EXPECT_TRUE(loaded.base_view()->has_stats());

  // Queries against the loaded cube match brute force on the loaded base.
  std::vector<DimensionalQuery> queries;
  queries.push_back(MakeQuery(loaded.schema(), 1, "X'Y''", {{"X", 2, {0}}}));
  const auto results = loaded.ExecuteNaive(queries);
  EXPECT_TRUE(results[0].result.ApproxEquals(BruteForce(
      loaded.schema(), loaded.base_view()->table(), queries[0])));
}

TEST_F(PersistenceTest, LoadRejectsNonEmptyEngine) {
  Engine original(SmallSchema());
  original.LoadFactTable({.num_rows = 100, .seed = 1});
  ASSERT_TRUE(original.SaveCube(dir_.string()).ok());
  EXPECT_EQ(original.LoadCube(dir_.string()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, LoadMissingDirectoryFails) {
  Engine engine(SmallSchema());
  EXPECT_EQ(engine.LoadCube((dir_ / "nope").string()).code(),
            StatusCode::kNotFound);
}

TEST_F(PersistenceTest, SaveWithoutDataFails) {
  Engine engine(SmallSchema());
  EXPECT_EQ(engine.SaveCube(dir_.string()).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace starshare
