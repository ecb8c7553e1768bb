// ViewBuilder::Refresh merges a delta into the view's rows in Emit order.
// The reference build (tests/oracles.h) over the old view then the delta
// re-aggregates everything instead: it folds each old cell as 0.0 + its
// value, then each delta row in arrival order, into a std::map and emits
// the cells in Emit order. The merge must match it byte for byte (rows,
// order, measure bits, names, packed words) and charge the same I/O, for
// every layout and delta shape below. MaterializedView::SpliceRows then
// carries the view's statistics and indexes over; they must equal
// ComputeStats and BuildIndex over the reference table, at the same I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cube/materialized_view.h"
#include "cube/view_builder.h"
#include "storage/disk_model.h"
#include "tests/oracles.h"
#include "tests/test_util.h"
#include "tests/view_identity.h"

namespace starshare {
namespace {

using testing::BruteForce;
using testing::ExpectSameStatsAndIndexes;
using testing::ExpectSameTable;

// SmallSchema's hierarchies with two measures, so every per-measure path
// runs more than once.
StarSchema TwoMeasureSchema() {
  std::vector<DimensionConfig> dims;
  dims.push_back({.name = "X", .top_cardinality = 2, .fanouts = {3, 2}});
  dims.push_back({.name = "Y", .top_cardinality = 2, .fanouts = {3, 2}});
  dims.push_back({.name = "Z", .top_cardinality = 3, .fanouts = {4}});
  return StarSchema(std::move(dims),
                    std::vector<std::string>{"amount", "units"});
}

// One base-level fact row.
struct Fact {
  int32_t x, y, z;
  double amount, units;
};

std::unique_ptr<Table> MakeTable(const std::string& name,
                                 const std::vector<Fact>& facts) {
  auto table = std::make_unique<Table>(
      name, std::vector<std::string>{"X", "Y", "Z"},
      std::vector<std::string>{"amount", "units"});
  for (const Fact& f : facts) {
    const int32_t keys[] = {f.x, f.y, f.z};
    const double values[] = {f.amount, f.units};
    table->AppendRowM(keys, values);
  }
  return table;
}

// `rows` random facts. X stays below `x_limit`, so a later delta row with a
// larger X widens the view's packed X column. Real measures carry
// fractions, so any change in fold order shows in the bits.
std::vector<Fact> RandomFacts(uint64_t rows, uint64_t seed, bool integer,
                              int32_t x_limit = 12) {
  Rng rng(seed);
  std::vector<Fact> facts;
  for (uint64_t r = 0; r < rows; ++r) {
    Fact f;
    f.x = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(x_limit)));
    f.y = static_cast<int32_t>(rng.NextBounded(12));
    f.z = static_cast<int32_t>(rng.NextBounded(12));
    f.amount = integer ? static_cast<double>(rng.NextBounded(1000))
                       : rng.NextDouble() * 1000.0 - 100.0;
    f.units = integer ? static_cast<double>(rng.NextBounded(7))
                      : rng.NextDouble() / 3.0;
    facts.push_back(f);
  }
  return facts;
}

// Gives `view` statistics and an index on every retained dimension,
// charged to `disk`.
void StatsAndIndexes(const StarSchema& schema, MaterializedView& view,
                     DiskModel& disk) {
  view.ComputeStats(schema);
  for (const size_t d : view.spec().RetainedDims(schema)) {
    view.BuildIndex(schema, d, disk);
  }
}

// Builds `spec` over `base` with ViewBuilder::Build, gives it statistics
// and indexes, refreshes it with `delta` and splices the refreshed rows
// into it. The table must equal the reference, and the statistics and
// indexes must equal ComputeStats and BuildIndex over the reference table,
// with refresh + splice charging what refresh + rebuild charge.
void CheckRefresh(const StarSchema& schema, const std::vector<Fact>& base,
                  const std::string& spec_text, bool compressed,
                  bool clustered, const std::vector<Fact>& delta,
                  const std::string& label) {
  SCOPED_TRACE(label);
  const GroupBySpec spec = GroupBySpec::Parse(spec_text, schema).value();
  const std::unique_ptr<Table> base_table = MakeTable("facts", base);
  const MaterializedView base_view(schema, GroupBySpec::Base(schema),
                                   base_table.get());
  ViewBuilder builder(schema);
  builder.set_compressed_pages(compressed);
  DiskModel build_disk;
  const std::unique_ptr<Table> old_table = std::move(
      builder.Build(base_view, {spec}, build_disk, clustered).value().front());
  MaterializedView view(schema, spec, old_table.get());
  view.set_clustered(clustered);
  StatsAndIndexes(schema, view, build_disk);

  const std::unique_ptr<Table> delta_table = MakeTable("delta", delta);
  const MaterializedView delta_view(schema, GroupBySpec::Base(schema),
                                    delta_table.get());
  DiskModel disk;
  const RefreshedTable refreshed = builder.Refresh(view, delta_view, disk);
  const testing::ReferenceViews want = testing::ReferenceBuild(
      schema, {&view, &delta_view}, {spec}, clustered, compressed);
  ExpectSameTable(*refreshed.table, *want.tables[0], label);
  EXPECT_EQ(refreshed.table->num_rows() - refreshed.inserted_before.size(),
            old_table->num_rows());

  view.SpliceRows(schema, refreshed.table.get(), refreshed.inserted_before,
                  disk);
  MaterializedView rebuilt(schema, spec, want.tables[0].get());
  DiskModel rebuild_disk;
  StatsAndIndexes(schema, rebuilt, rebuild_disk);
  IoStats want_io = want.io;
  want_io += rebuild_disk.stats();
  EXPECT_EQ(disk.stats(), want_io) << disk.stats().ToString() << " vs "
                                   << want_io.ToString();
  ExpectSameStatsAndIndexes(schema, view, rebuilt, label);
}

TEST(ViewRefreshTest, MergeMatchesReferenceAcrossLayoutsAndDeltas) {
  const StarSchema schema = TwoMeasureSchema();
  for (const bool integer : {false, true}) {
    // X' stays in {0, 1, 2} in the old view; 300 rows fill about half of
    // the 432 cells of XY'Z, so deltas hit old and new cells alike.
    const std::vector<Fact> base = RandomFacts(300, 7, integer, 6);
    std::vector<std::pair<std::string, std::vector<Fact>>> deltas;
    deltas.emplace_back("empty", std::vector<Fact>{});
    deltas.emplace_back("one row", RandomFacts(1, 11, integer, 6));
    std::vector<Fact> one_cell = RandomFacts(60, 13, integer, 6);
    for (Fact& f : one_cell) {
      f.x = 3;
      f.y = 4;
      f.z = 5;
    }
    deltas.emplace_back("many rows on one cell", one_cell);
    deltas.emplace_back("larger than the view",
                        RandomFacts(2000, 17, integer, 6));
    std::vector<Fact> widening = RandomFacts(40, 19, integer, 6);
    widening[7].x = 11;   // X' = 5: outside the old packed range
    widening[23].z = 11;
    deltas.emplace_back("key outside the old packed range", widening);

    for (const bool compressed : {false, true}) {
      for (const bool clustered : {false, true}) {
        for (const auto& [name, delta] : deltas) {
          const std::string label =
              std::string(integer ? "integer" : "real") +
              (compressed ? " compressed" : " uncompressed") +
              (clustered ? " clustered" : " hash-order") + " / " + name;
          CheckRefresh(schema, base, "XY'Z", compressed, clustered, delta,
                       label);
          CheckRefresh(schema, base, "X''Y'", compressed, clustered, delta,
                       label + " (coarse view)");
        }
      }
    }
  }
}

TEST(ViewRefreshTest, KeyBelowTheOldFrameRepacks) {
  // X stays in [6, 12) in the old view, so X' in {2, 3} packs at ref 2; a
  // delta row with X' = 0 moves the ref down, and X = 0 the base-level one.
  const StarSchema schema = TwoMeasureSchema();
  std::vector<Fact> base = RandomFacts(300, 41, /*integer=*/false, 6);
  for (Fact& f : base) f.x += 6;
  std::vector<Fact> delta = RandomFacts(40, 43, /*integer=*/false, 6);
  delta[5].x = 0;
  for (const bool compressed : {false, true}) {
    for (const bool clustered : {false, true}) {
      const std::string label =
          std::string(compressed ? "compressed" : "uncompressed") +
          (clustered ? " clustered" : " hash-order");
      CheckRefresh(schema, base, "X'Y'Z", compressed, clustered, delta,
                   label);
      CheckRefresh(schema, base, "XZ'", compressed, clustered, delta,
                   label + " (base-level X)");
    }
  }
}

TEST(ViewRefreshTest, EmptyAndZeroKeyViews) {
  const StarSchema schema = TwoMeasureSchema();
  const std::vector<Fact> none;
  const std::vector<Fact> base = RandomFacts(200, 23, /*integer=*/false);
  const std::vector<Fact> delta = RandomFacts(50, 29, /*integer=*/false);
  for (const bool compressed : {false, true}) {
    for (const bool clustered : {false, true}) {
      CheckRefresh(schema, none, "XY'Z", compressed, clustered, delta,
                   "empty view");
      CheckRefresh(schema, none, "XY'Z", compressed, clustered, none,
                   "empty view, empty delta");
      CheckRefresh(schema, base, "()", compressed, clustered, delta,
                   "zero-key view");
      CheckRefresh(schema, base, "()", compressed, clustered, none,
                   "zero-key view, empty delta");
      CheckRefresh(schema, none, "()", compressed, clustered, delta,
                   "empty zero-key view");
    }
  }
}

TEST(ViewRefreshTest, UntouchedCellsFoldLikeTheReference) {
  // A view table written by other means can hold -0.0; a rebuild folds it
  // as 0.0 + -0.0 = +0.0, and so must the bulk copy of untouched rows.
  const StarSchema schema = TwoMeasureSchema();
  const GroupBySpec spec = GroupBySpec::Parse("X''", schema).value();
  auto old_table = std::make_unique<Table>(
      "X''", std::vector<std::string>{"X''"},
      std::vector<std::string>{"amount", "units"});
  for (int32_t x = 0; x < 2; ++x) {
    const double values[] = {-0.0, x == 0 ? 5.0 : -0.0};
    old_table->AppendRowM(&x, values);
  }
  // Hash order of the two cells, as Build would write them.
  if (EmitSortKey(1, false) < EmitSortKey(0, false)) {
    auto swapped = std::make_unique<Table>(
        "X''", std::vector<std::string>{"X''"},
        std::vector<std::string>{"amount", "units"});
    for (int32_t x : {1, 0}) {
      const double values[] = {-0.0, x == 0 ? 5.0 : -0.0};
      swapped->AppendRowM(&x, values);
    }
    old_table = std::move(swapped);
  }
  const MaterializedView view(schema, spec, old_table.get());
  const std::unique_ptr<Table> delta_table = MakeTable("delta", {});
  const MaterializedView delta(schema, GroupBySpec::Base(schema),
                               delta_table.get());
  ViewBuilder builder(schema);
  DiskModel disk;
  const std::unique_ptr<Table> refreshed =
      builder.Refresh(view, delta, disk).table;
  const testing::ReferenceViews want =
      testing::ReferenceBuild(schema, {&view, &delta}, {spec}, false, false);
  ExpectSameTable(*refreshed, *want.tables[0], "negative zero");
  EXPECT_EQ(disk.stats(), want.io);
  EXPECT_FALSE(std::signbit(refreshed->measure(0, 0)));
}

TEST(ViewRefreshTest, OutOfOrderViewKeepsEverySum) {
  // Rows out of Emit order, as in a table file LoadCube accepts: the merge
  // may not place the delta as a rebuild would, but it must stay in bounds
  // and keep every old row and every delta contribution.
  const StarSchema schema = TwoMeasureSchema();
  const std::vector<Fact> base = RandomFacts(400, 31, /*integer=*/true);
  const std::vector<Fact> delta = RandomFacts(500, 37, /*integer=*/true);
  for (const char* spec_text : {"XY'Z", "X'Z'", "()"}) {
    SCOPED_TRACE(spec_text);
    const GroupBySpec spec = GroupBySpec::Parse(spec_text, schema).value();
    const std::unique_ptr<Table> base_table = MakeTable("facts", base);
    const MaterializedView base_view(schema, GroupBySpec::Base(schema),
                                     base_table.get());
    ViewBuilder builder(schema);
    DiskModel disk;
    const std::unique_ptr<Table> built =
        std::move(builder.Build(base_view, {spec}, disk).value().front());

    // The same cells, rows reversed.
    std::vector<std::string> key_names;
    for (size_t c = 0; c < built->num_key_columns(); ++c) {
      key_names.push_back(built->key_column_name(c));
    }
    auto reversed = std::make_unique<Table>(
        built->name(), key_names,
        std::vector<std::string>{"amount", "units"});
    std::vector<int32_t> keys(built->num_key_columns());
    for (uint64_t r = built->num_rows(); r-- > 0;) {
      for (size_t c = 0; c < keys.size(); ++c) keys[c] = built->key(c, r);
      const double values[] = {built->measure(r, 0), built->measure(r, 1)};
      reversed->AppendRowM(keys.data(), values);
    }
    MaterializedView view(schema, spec, reversed.get());
    StatsAndIndexes(schema, view, disk);
    const std::unique_ptr<Table> delta_table = MakeTable("delta", delta);
    const MaterializedView delta_view(schema, GroupBySpec::Base(schema),
                                      delta_table.get());
    RefreshedTable spliced = builder.Refresh(view, delta_view, disk);
    const std::unique_ptr<Table> refreshed = std::move(spliced.table);
    ASSERT_GE(refreshed->num_rows(), reversed->num_rows());

    // Whatever the merge placed, the splice keeps statistics and indexes
    // equal to a rebuild over the refreshed rows, charging the same I/O.
    DiskModel splice_disk;
    view.SpliceRows(schema, refreshed.get(), spliced.inserted_before,
                    splice_disk);
    MaterializedView rebuilt(schema, spec, refreshed.get());
    DiskModel rebuild_disk;
    StatsAndIndexes(schema, rebuilt, rebuild_disk);
    EXPECT_EQ(splice_disk.stats(), rebuild_disk.stats());
    ExpectSameStatsAndIndexes(schema, view, rebuilt, spec_text);

    std::vector<Fact> all = base;
    all.insert(all.end(), delta.begin(), delta.end());
    const std::unique_ptr<Table> all_table = MakeTable("all", all);
    for (size_t m = 0; m < 2; ++m) {
      std::map<std::vector<int32_t>, double> sums;
      for (uint64_t r = 0; r < refreshed->num_rows(); ++r) {
        for (size_t c = 0; c < keys.size(); ++c) {
          keys[c] = refreshed->key(c, r);
        }
        sums[keys] += refreshed->measure(r, m);
      }
      QueryResult got(spec, AggOp::kSum);
      for (const auto& [group, sum] : sums) got.AddRow(group, sum);
      got.Canonicalize();
      DimensionalQuery query(1, spec_text, spec, QueryPredicate(),
                             AggOp::kSum, m);
      EXPECT_TRUE(got.ApproxEquals(BruteForce(schema, *all_table, query)))
          << "measure " << m;
    }
  }
}

}  // namespace
}  // namespace starshare
