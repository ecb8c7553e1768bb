// Unit tests for the composable batch-pull operators (exec/operators/) in
// isolation: synthetic inputs, hand-driven chains, no Engine and no
// Executor. Covers the edge shapes the drivers rely on — empty input,
// single-row batches, batch sizes that do not divide the page size — and
// checks every operator's charging against its storage-layer oracle.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "exec/operators/aggregate_sink.h"
#include "exec/operators/bitmap_filter.h"
#include "exec/operators/operator.h"
#include "exec/operators/probe_source.h"
#include "exec/operators/scan_source.h"
#include "exec/operators/star_join_filter.h"
#include "exec/vector_batch.h"
#include "schema/data_generator.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::MakeQuery;
using testing::SmallSchema;

class OperatorUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DataGenerator gen(schema_, {.num_rows = 5'000, .seed = 11});
    table_ = gen.Generate("base");
    table_->set_id(1);
    view_ = std::make_unique<MaterializedView>(
        schema_, GroupBySpec::Base(schema_), table_.get());
    view_->ComputeStats(schema_);
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      DiskModel scratch;
      view_->BuildIndex(schema_, d, scratch);
    }
  }

  StarSchema schema_ = SmallSchema();
  std::unique_ptr<Table> table_;
  std::unique_ptr<MaterializedView> view_;
};

// Pulls a chain to exhaustion, appending every slot's matches into `out`
// (the driver's job in class_pipeline.cc).
void Drain(BatchOperator& chain, size_t num_slots,
           std::vector<QueryMatchBatch>& out, uint64_t* batches = nullptr) {
  out.assign(num_slots, QueryMatchBatch());
  std::vector<QueryMatchBatch> matches(num_slots);
  ClassBatch batch;
  batch.matches = &matches;
  chain.Open();
  while (chain.NextBatch(batch)) {
    if (batches != nullptr) ++*batches;
    for (size_t s = 0; s < num_slots; ++s) {
      out[s].Append(matches[s].keys.data(), matches[s].values.data(),
                    matches[s].size());
      matches[s].Clear();
    }
  }
  chain.Close();
}

bool SameStream(const QueryMatchBatch& a, const QueryMatchBatch& b) {
  // memcmp must not see the null data() of an empty stream.
  return a.keys == b.keys && a.values.size() == b.values.size() &&
         (a.values.empty() ||
          std::memcmp(a.values.data(), b.values.data(),
                      a.values.size() * sizeof(double)) == 0);
}

TEST_F(OperatorUnitTest, ScanSourceChargesEveryPageOnceAtAnyBatchSize) {
  DiskModel oracle_disk;
  table_->ScanPages(oracle_disk, [&](uint64_t begin, uint64_t end) {
    oracle_disk.CountTuples(end - begin);
  });
  const IoStats oracle = oracle_disk.stats();

  for (const uint64_t batch_rows : {uint64_t{1}, uint64_t{7}, uint64_t{1024},
                                    table_->num_rows() * 2}) {
    DiskModel disk;
    ScanSourceOp op(*table_, disk, 0, table_->num_rows(), batch_rows);
    ClassBatch batch;
    uint64_t expect_begin = 0;
    op.Open();
    while (op.NextBatch(batch)) {
      EXPECT_EQ(batch.begin, expect_begin) << "batch_rows=" << batch_rows;
      EXPECT_GT(batch.end, batch.begin);
      EXPECT_LE(batch.end - batch.begin, batch_rows);
      EXPECT_EQ(batch.positions, nullptr);
      expect_begin = batch.end;
    }
    op.Close();
    EXPECT_EQ(expect_begin, table_->num_rows()) << "batch_rows=" << batch_rows;
    EXPECT_EQ(disk.stats(), oracle) << "batch_rows=" << batch_rows;
  }
}

TEST_F(OperatorUnitTest, ScanSourceEmptyRangeEmitsNothingAndChargesNothing) {
  DiskModel disk;
  ScanSourceOp op(*table_, disk, 42, 42, 16);
  ClassBatch batch;
  op.Open();
  EXPECT_FALSE(op.NextBatch(batch));
  op.Close();
  EXPECT_EQ(disk.stats(), IoStats());
}

TEST_F(OperatorUnitTest, ScanSourceSubRangeChargesOnlyTouchedPages) {
  const uint64_t rpp = table_->rows_per_page();
  const uint64_t begin = rpp;          // page 1
  const uint64_t end = 3 * rpp + 1;    // reaches into page 3
  DiskModel oracle_disk;
  table_->ScanRowRange(oracle_disk, begin, end,
                       [&](uint64_t b, uint64_t e) {
                         oracle_disk.CountTuples(e - b);
                       });
  DiskModel disk;
  ScanSourceOp op(*table_, disk, begin, end, 5);
  ClassBatch batch;
  op.Open();
  while (op.NextBatch(batch)) {
  }
  op.Close();
  EXPECT_EQ(disk.stats(), oracle_disk.stats());
}

TEST_F(OperatorUnitTest, ProbeSourceEmitsOneBatchAndMatchesProbeOracle) {
  // Candidate positions spread across pages, including adjacent pairs on
  // one page (must charge the page once).
  std::vector<uint64_t> positions = {3, 4, 200, 1037, 1038, 4999};
  DiskModel oracle_disk;
  table_->ProbePositions(
      oracle_disk, std::span<const uint64_t>(positions), [](uint64_t) {});
  oracle_disk.CountTuples(positions.size());

  DiskModel disk;
  ProbeSourceOp op(*table_, disk, positions.data(), positions.size());
  ClassBatch batch;
  op.Open();
  ASSERT_TRUE(op.NextBatch(batch));
  EXPECT_EQ(batch.begin, positions.front());
  EXPECT_EQ(batch.end, positions.back() + 1);
  EXPECT_EQ(batch.positions, positions.data());
  EXPECT_EQ(batch.num_positions, positions.size());
  EXPECT_FALSE(op.NextBatch(batch));  // one-shot
  op.Close();
  EXPECT_EQ(disk.stats(), oracle_disk.stats());
}

TEST_F(OperatorUnitTest, ProbeSourceEmptyPositionsEmitsNothing) {
  DiskModel disk;
  ProbeSourceOp op(*table_, disk, nullptr, 0);
  ClassBatch batch;
  op.Open();
  EXPECT_FALSE(op.NextBatch(batch));
  op.Close();
  EXPECT_EQ(disk.stats(), IoStats());
}

TEST_F(OperatorUnitTest, StarJoinFilterStreamsAreBatchSizeInvariant) {
  DimensionalQuery q1 = MakeQuery(schema_, 1, "X'Y'Z", {{"X", 1, {0, 2}}});
  DimensionalQuery q2 =
      MakeQuery(schema_, 2, "X''Y''Z'", {{"Y", 0, {1, 3, 5, 7}}});
  const std::vector<const DimensionalQuery*> members = {&q1, &q2};
  const std::vector<SharedDimFilter> filters =
      BuildSharedFilters(schema_, members, *view_);

  const auto run = [&](uint64_t batch_rows,
                       std::vector<QueryMatchBatch>& out) {
    std::vector<BoundQuery> bound;
    bound.emplace_back(schema_, q1, *view_);
    bound.emplace_back(schema_, q2, *view_);
    DiskModel disk;
    ScanSourceOp scan(*table_, disk, 0, table_->num_rows(), batch_rows);
    StarJoinFilterOp filter(&scan, disk, filters, bound, /*n_hash=*/2);
    Drain(filter, 2, out);
    return disk.stats();
  };

  std::vector<QueryMatchBatch> reference;
  const IoStats reference_stats = run(1024, reference);
  EXPECT_GT(reference[0].size() + reference[1].size(), 0u);
  for (const uint64_t batch_rows : {uint64_t{1}, uint64_t{13}}) {
    std::vector<QueryMatchBatch> out;
    const IoStats stats = run(batch_rows, out);
    EXPECT_TRUE(SameStream(out[0], reference[0])) << "batch=" << batch_rows;
    EXPECT_TRUE(SameStream(out[1], reference[1])) << "batch=" << batch_rows;
    EXPECT_EQ(stats, reference_stats) << "batch=" << batch_rows;
  }
}

// The key column BuildSharedFilters reads for dimension `d`.
const KeyColumn* ColumnOf(const MaterializedView& view, size_t d) {
  return &view.table().key_column(view.KeyColForDim(d));
}

TEST_F(OperatorUnitTest, SharedFiltersSortByPassRows) {
  // X passes leaves 0-5, Y leaves 1-2, Z leaves 0-7 (for either member).
  DimensionalQuery q1 = MakeQuery(
      schema_, 1, "X'Y'Z", {{"X", 2, {0}}, {"Y", 0, {1}}, {"Z", 1, {0, 1}}});
  DimensionalQuery q2 = MakeQuery(
      schema_, 2, "Z", {{"X", 2, {0}}, {"Y", 0, {1, 2}}, {"Z", 1, {0}}});
  const std::vector<SharedDimFilter> filters =
      BuildSharedFilters(schema_, {&q1, &q2}, *view_);
  ASSERT_EQ(filters.size(), 3u);
  EXPECT_EQ(filters[0].col, ColumnOf(*view_, 1));
  EXPECT_EQ(filters[1].col, ColumnOf(*view_, 0));
  EXPECT_EQ(filters[2].col, ColumnOf(*view_, 2));
  for (size_t f = 0; f < filters.size(); ++f) {
    // Pass rows are the rows whose key some member accepts.
    uint64_t rows = 0;
    filters[f].col->ForEach(0, table_->num_rows(), [&](uint64_t, int32_t v) {
      rows += filters[f].masks[static_cast<size_t>(v)] != 0;
    });
    EXPECT_EQ(filters[f].pass_rows, rows) << "filter " << f;
    if (f > 0) {
      EXPECT_LT(filters[f - 1].pass_rows, filters[f].pass_rows);
    }
  }
}

TEST_F(OperatorUnitTest, SharedFiltersBreakTiesInDimensionOrder) {
  // Each member leaves one of X and Y unrestricted, so both filters pass
  // every row; only Z narrows.
  DimensionalQuery q1 =
      MakeQuery(schema_, 1, "X'Y'Z", {{"X", 2, {0}}, {"Z", 0, {3}}});
  DimensionalQuery q2 =
      MakeQuery(schema_, 2, "Z", {{"Y", 2, {1}}, {"Z", 0, {4}}});
  const std::vector<SharedDimFilter> filters =
      BuildSharedFilters(schema_, {&q1, &q2}, *view_);
  ASSERT_EQ(filters.size(), 3u);
  EXPECT_EQ(filters[0].col, ColumnOf(*view_, 2));
  EXPECT_EQ(filters[1].col, ColumnOf(*view_, 0));
  EXPECT_EQ(filters[2].col, ColumnOf(*view_, 1));
  EXPECT_EQ(filters[1].pass_rows, table_->num_rows());
  EXPECT_EQ(filters[2].pass_rows, table_->num_rows());
}

TEST_F(OperatorUnitTest, SharedFiltersWithoutStatisticsCountMembers) {
  // A hand-built view with no ComputeStats: pass rows fall back to the
  // number of accepted stored members (X 6, Y 2, Z 8).
  const MaterializedView bare(schema_, GroupBySpec::Base(schema_),
                              table_.get());
  ASSERT_FALSE(bare.has_stats());
  DimensionalQuery q = MakeQuery(
      schema_, 1, "X'Y'Z", {{"X", 2, {0}}, {"Y", 0, {1, 2}}, {"Z", 1, {0, 1}}});
  const std::vector<SharedDimFilter> filters =
      BuildSharedFilters(schema_, {&q}, bare);
  ASSERT_EQ(filters.size(), 3u);
  EXPECT_EQ(filters[0].col, ColumnOf(bare, 1));
  EXPECT_EQ(filters[0].pass_rows, 2u);
  EXPECT_EQ(filters[1].col, ColumnOf(bare, 0));
  EXPECT_EQ(filters[1].pass_rows, 6u);
  EXPECT_EQ(filters[2].col, ColumnOf(bare, 2));
  EXPECT_EQ(filters[2].pass_rows, 8u);
}

TEST_F(OperatorUnitTest, StarJoinFilterEmptyInputEmitsNoMatches) {
  DimensionalQuery q1 = MakeQuery(schema_, 1, "X'Y'Z", {{"X", 1, {0, 2}}});
  const std::vector<const DimensionalQuery*> members = {&q1};
  const std::vector<SharedDimFilter> filters =
      BuildSharedFilters(schema_, members, *view_);
  std::vector<BoundQuery> bound;
  bound.emplace_back(schema_, q1, *view_);
  DiskModel disk;
  ScanSourceOp scan(*table_, disk, 0, 0, 1024);
  StarJoinFilterOp filter(&scan, disk, filters, bound, 1);
  std::vector<QueryMatchBatch> out;
  Drain(filter, 1, out);
  EXPECT_EQ(out[0].size(), 0u);
  EXPECT_EQ(disk.stats(), IoStats());
}

// A row-by-row probe of `filters` over rows [0, rows): each row's mask is
// the AND of every filter's mask for its key, and each member whose bit
// survives takes the row.
std::vector<QueryMatchBatch> RowByRowMatches(
    const std::vector<SharedDimFilter>& filters,
    const std::vector<BoundQuery>& bound, uint64_t rows) {
  std::vector<QueryMatchBatch> out(bound.size());
  for (uint64_t row = 0; row < rows; ++row) {
    uint32_t mask = AllQueriesMask(bound.size());
    for (const SharedDimFilter& f : filters) {
      mask &= f.masks[static_cast<size_t>(f.col->Get(row))];
    }
    for (size_t qi = 0; qi < bound.size(); ++qi) {
      if ((mask >> qi) & 1) EmitRows(bound[qi], &row, 1, out[qi]);
    }
  }
  return out;
}

// Runs a hash-only class of `queries` over the fixture's view in both page
// layouts (the packed one takes the vector select kernel where the CPU has
// it) at several batch sizes, against the row-by-row probe; returns the
// first filter of the last layout run.
SharedDimFilter ExpectStarJoinMatchesRowByRow(
    const StarSchema& schema, Table& table, const MaterializedView& view,
    const std::vector<const DimensionalQuery*>& queries) {
  SharedDimFilter first;
  for (const bool compressed : {false, true}) {
    table.SetCompressed(compressed);
    const std::vector<SharedDimFilter> filters =
        BuildSharedFilters(schema, queries, view);
    first = filters.at(0);
    std::vector<BoundQuery> bound;
    for (const DimensionalQuery* q : queries) {
      bound.emplace_back(schema, *q, view);
    }
    const std::vector<QueryMatchBatch> want =
        RowByRowMatches(filters, bound, table.num_rows());
    for (const uint64_t batch_rows :
         {uint64_t{1}, uint64_t{13}, uint64_t{1024}, table.num_rows()}) {
      DiskModel disk;
      ScanSourceOp scan(table, disk, 0, table.num_rows(), batch_rows);
      StarJoinFilterOp filter(&scan, disk, filters, bound, queries.size());
      std::vector<QueryMatchBatch> out;
      Drain(filter, queries.size(), out);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        EXPECT_TRUE(SameStream(out[qi], want[qi]))
            << "compressed=" << compressed << " batch=" << batch_rows
            << " member " << qi;
      }
      // One modeled probe per row per filter, whatever the kernel reads.
      EXPECT_EQ(disk.stats().hash_probes, table.num_rows() * filters.size());
    }
  }
  return first;
}

TEST_F(OperatorUnitTest, StarJoinFirstFilterWithGapsMatchesRowByRowProbe) {
  // X accepts leaves {0, 5, 9} only, so its range [0, 9] also selects rows
  // it then drops; Z narrows q1 further.
  DimensionalQuery q1 = MakeQuery(
      schema_, 1, "X'Y'Z", {{"X", 0, {0, 5}}, {"Z", 0, {1, 2, 3, 4, 5, 6}}});
  DimensionalQuery q2 = MakeQuery(schema_, 2, "Z", {{"X", 0, {9}}});
  const SharedDimFilter first =
      ExpectStarJoinMatchesRowByRow(schema_, *table_, *view_, {&q1, &q2});
  EXPECT_EQ(first.col, ColumnOf(*view_, 0));
  EXPECT_EQ(first.lo, 0);
  EXPECT_EQ(first.hi, 9);
  uint64_t in_gaps = 0;
  first.col->ForEach(0, table_->num_rows(), [&](uint64_t, int32_t v) {
    in_gaps += v > 0 && v < 9 && v != 5;
  });
  EXPECT_GT(in_gaps, 0u);
}

TEST_F(OperatorUnitTest, StarJoinFirstFilterAcceptingNothingEmitsNothing) {
  DimensionalQuery q1 =
      MakeQuery(schema_, 1, "X'Y'Z", {{"X", 0, {}}, {"Z", 0, {1}}});
  DimensionalQuery q2 = MakeQuery(schema_, 2, "Z", {{"X", 1, {}}});
  const SharedDimFilter first =
      ExpectStarJoinMatchesRowByRow(schema_, *table_, *view_, {&q1, &q2});
  EXPECT_EQ(first.col, ColumnOf(*view_, 0));
  EXPECT_EQ(first.pass_rows, 0u);
  EXPECT_GT(first.lo, first.hi);
}

TEST_F(OperatorUnitTest, BitmapFilterScanAndProbeModesAgree) {
  DimensionalQuery q = MakeQuery(schema_, 5, "Y''Z", {{"Z", 0, {2, 4, 6}}});
  DiskModel index_disk;
  Bitmap bitmap;
  std::vector<const DimPredicate*> residual;
  ASSERT_TRUE(BuildMemberBitmap(schema_, q, *view_, index_disk,
                                          &bitmap, &residual)
                  .ok());
  std::vector<Bitmap> bitmaps;
  bitmaps.push_back(std::move(bitmap));
  std::vector<ResidualFilter> residuals;
  residuals.emplace_back(schema_, *view_, residual);
  const std::vector<uint64_t> positions = bitmaps[0].ToPositions();
  ASSERT_FALSE(positions.empty());

  // §3.3 scan mode: slice the bitmap over each scanned span.
  const auto run_scan = [&](size_t batch_rows,
                            std::vector<QueryMatchBatch>& out) {
    std::vector<BoundQuery> bound;
    bound.emplace_back(schema_, q, *view_);
    DiskModel disk;
    ScanSourceOp scan(*table_, disk, 0, table_->num_rows(), batch_rows);
    BitmapFilterOp filter(&scan, bitmaps, residuals, bound, /*slot_base=*/0,
                          batch_rows);
    Drain(filter, 1, out);
  };
  // §3.2 probe mode: route the probed positions through the member.
  const auto run_probe = [&](size_t batch_rows,
                             std::vector<QueryMatchBatch>& out) {
    std::vector<BoundQuery> bound;
    bound.emplace_back(schema_, q, *view_);
    DiskModel disk;
    ProbeSourceOp probe(*table_, disk, positions.data(), positions.size());
    BitmapFilterOp filter(&probe, bitmaps, residuals, bound, /*slot_base=*/0,
                          batch_rows);
    Drain(filter, 1, out);
  };

  std::vector<QueryMatchBatch> reference;
  run_scan(1024, reference);
  ASSERT_GT(reference[0].size(), 0u);
  for (const size_t batch_rows : {size_t{1}, size_t{9}, size_t{1024}}) {
    std::vector<QueryMatchBatch> scan_out;
    run_scan(batch_rows, scan_out);
    EXPECT_TRUE(SameStream(scan_out[0], reference[0]))
        << "scan batch=" << batch_rows;
    std::vector<QueryMatchBatch> probe_out;
    run_probe(batch_rows, probe_out);
    EXPECT_TRUE(SameStream(probe_out[0], reference[0]))
        << "probe batch=" << batch_rows;
  }
}

TEST_F(OperatorUnitTest, BitmapFilterOverEmptyProbeEmitsNothing) {
  DimensionalQuery q = MakeQuery(schema_, 5, "Y''Z", {{"Z", 0, {2, 4, 6}}});
  std::vector<Bitmap> bitmaps;
  bitmaps.emplace_back(table_->num_rows());  // all-zero bitmap
  std::vector<ResidualFilter> residuals;
  residuals.emplace_back(schema_, *view_,
                         std::vector<const DimPredicate*>());
  std::vector<BoundQuery> bound;
  bound.emplace_back(schema_, q, *view_);
  DiskModel disk;
  ProbeSourceOp probe(*table_, disk, nullptr, 0);
  BitmapFilterOp filter(&probe, bitmaps, residuals, bound, 0,
                        kDefaultBatchRows);
  std::vector<QueryMatchBatch> out;
  Drain(filter, 1, out);
  EXPECT_EQ(out[0].size(), 0u);
  EXPECT_EQ(disk.stats(), IoStats());
}

TEST_F(OperatorUnitTest, AggregateSinkFoldIsChunkingInvariant) {
  DimensionalQuery q = MakeQuery(schema_, 1, "X'Y'Z", {{"X", 1, {0, 2}}});

  // The full match stream of the query over the view, produced once.
  std::vector<QueryMatchBatch> stream;
  {
    const std::vector<const DimensionalQuery*> members = {&q};
    const auto filters =
        BuildSharedFilters(schema_, members, *view_);
    std::vector<BoundQuery> bound;
    bound.emplace_back(schema_, q, *view_);
    DiskModel disk;
    ScanSourceOp scan(*table_, disk, 0, table_->num_rows(), 1024);
    StarJoinFilterOp filter(&scan, disk, filters, bound, 1);
    Drain(filter, 1, stream);
  }
  ASSERT_GT(stream[0].size(), 2u);

  const auto fold = [&](const std::vector<size_t>& cuts) {
    std::vector<BoundQuery> bound;
    bound.emplace_back(schema_, q, *view_);
    AggregateSink sink(bound);
    std::vector<QueryMatchBatch> slot(1);
    size_t at = 0;
    for (const size_t cut : cuts) {
      slot[0].Clear();
      slot[0].Append(stream[0].keys.data() + at,
                     stream[0].values.data() + at, cut - at);
      sink.Consume(slot);
      at = cut;
    }
    slot[0].Clear();
    slot[0].Append(stream[0].keys.data() + at, stream[0].values.data() + at,
                   stream[0].size() - at);
    sink.Consume(slot);
    // Empty trailing batch: must be a no-op.
    slot[0].Clear();
    sink.Consume(slot);
    return bound[0].Finish();
  };

  const QueryResult whole = fold({});
  const QueryResult rows_of_one = fold([&] {
    std::vector<size_t> cuts;
    for (size_t i = 1; i < stream[0].size(); ++i) cuts.push_back(i);
    return cuts;
  }());
  const QueryResult lopsided = fold({1, stream[0].size() / 2});

  EXPECT_TRUE(testing::BitIdentical(rows_of_one, whole));
  EXPECT_TRUE(testing::BitIdentical(lopsided, whole));
}

}  // namespace
}  // namespace starshare
