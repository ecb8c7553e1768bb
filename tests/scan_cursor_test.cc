// CircularScanCursor: the fixed page-aligned segment grid under the
// continuous shared scan. The grid never moves — segment k covers the same
// rows no matter when a member attached — and wraparound re-charges pages
// (a second revolution is real modeled I/O, validated with a fresh
// ScanSourceOp per segment, as the server drives them).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/operators/scan_source.h"
#include "parallel/scan_cursor.h"
#include "schema/data_generator.h"
#include "storage/disk_model.h"
#include "tests/test_util.h"

namespace starshare {
namespace {

using testing::SmallSchema;

TEST(CircularScanCursorTest, WalksAFixedGridAndWraps) {
  CircularScanCursor cursor(/*num_rows=*/100, /*segment_rows=*/30,
                            /*rows_per_page=*/10);
  EXPECT_EQ(cursor.segment_rows(), 30u);

  // First revolution: 30/30/30/10, then back to 0.
  std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {0, 30}, {30, 60}, {60, 90}, {90, 100}};
  for (const auto& [begin, end] : expected) {
    EXPECT_EQ(cursor.revolutions(), 0u);
    const auto seg = cursor.Next();
    EXPECT_EQ(seg.begin, begin);
    EXPECT_EQ(seg.end, end);
  }
  EXPECT_EQ(cursor.cursor(), 0u);
  EXPECT_EQ(cursor.revolutions(), 1u);

  // Second revolution repeats the exact same grid.
  for (const auto& [begin, end] : expected) {
    const auto seg = cursor.Next();
    EXPECT_EQ(seg.begin, begin);
    EXPECT_EQ(seg.end, end);
  }
  EXPECT_EQ(cursor.revolutions(), 2u);
}

TEST(CircularScanCursorTest, SegmentRowsArePageAlignedAndClamped) {
  // Requested 25 rows with 10-row pages rounds up to 30.
  EXPECT_EQ(CircularScanCursor(1000, 25, 10).segment_rows(), 30u);
  // Below one page clamps up to one page.
  EXPECT_EQ(CircularScanCursor(1000, 3, 10).segment_rows(), 10u);
  // Above the table clamps down to the table's page-rounded size: one
  // segment per revolution.
  CircularScanCursor big(95, 100000, 10);
  EXPECT_EQ(big.segment_rows(), 100u);
  const auto seg = big.Next();
  EXPECT_EQ(seg.begin, 0u);
  EXPECT_EQ(seg.end, 95u);
  EXPECT_EQ(big.revolutions(), 1u);
}

TEST(CircularScanCursorTest, DefaultGridGivesEightAlignedSegments) {
  const uint64_t rows = CircularScanCursor::DefaultSegmentRows(80000, 128);
  EXPECT_EQ(rows % 128, 0u);
  EXPECT_GE(rows, 80000u / CircularScanCursor::kSegmentsPerRevolution);
  // Tiny tables still get at least one page per segment.
  EXPECT_EQ(CircularScanCursor::DefaultSegmentRows(5, 128), 128u);
}

TEST(CircularScanCursorTest, FreshOpPerSegmentRechargesPagesOnWraparound) {
  const StarSchema schema = SmallSchema();
  DataGenerator gen(schema, {.num_rows = 5000, .seed = 99});
  std::unique_ptr<Table> table = gen.Generate("base");
  table->set_id(1);
  const uint64_t rpp = table->rows_per_page();
  const uint64_t num_pages = table->num_pages();

  DiskModel disk;
  ScanSourceOp scan(*table, disk, 0, table->num_rows(), 1024);
  ClassBatch batch;
  while (scan.NextBatch(batch)) {
  }
  EXPECT_EQ(disk.stats().seq_pages_read, num_pages);
  disk.ResetStats();

  // Segment-by-segment over the cursor's grid charges the same pages once.
  CircularScanCursor cursor(table->num_rows(), /*segment_rows=*/0, rpp);
  uint64_t driven = 0;
  while (cursor.revolutions() == 0) {
    const auto seg = cursor.Next();
    ScanSourceOp seg_scan(*table, disk, seg.begin, seg.end, 1024);
    while (seg_scan.NextBatch(batch)) {
    }
    driven += seg.num_rows();
  }
  EXPECT_EQ(driven, table->num_rows());
  EXPECT_EQ(disk.stats().seq_pages_read, num_pages);
  disk.ResetStats();

  // Wrapping around and re-driving a prefix charges its pages AGAIN.
  const auto prefix = cursor.Next();
  ScanSourceOp prefix_scan(*table, disk, prefix.begin, prefix.end, 1024);
  while (prefix_scan.NextBatch(batch)) {
  }
  EXPECT_EQ(disk.stats().seq_pages_read,
            (prefix.end + rpp - 1) / rpp - prefix.begin / rpp);
}

}  // namespace
}  // namespace starshare
