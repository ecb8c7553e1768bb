// Scan source (physical node kind kScan): streams the contiguous rows
// [begin, end) of a table in fixed-size batches, charging each page exactly
// once, in ascending order, the first time a batch touches it — the same
// ReadSequential call sequence as a page-at-a-time scan of the range, so
// IoStats and fault latching are bit-compatible with Table::ScanPages /
// ScanRowRange at any batch size.

#ifndef STARSHARE_EXEC_OPERATORS_SCAN_SOURCE_H_
#define STARSHARE_EXEC_OPERATORS_SCAN_SOURCE_H_

#include <algorithm>

#include "exec/operators/operator.h"
#include "storage/disk_model.h"
#include "storage/table.h"

namespace starshare {

class ScanSourceOp : public BatchOperator {
 public:
  // The pass driver hands morsel chains page-aligned [begin, end) slices,
  // so each page is charged by exactly one ScanSourceOp across the whole
  // scan. A new op over a range charges its pages again (a server
  // segment's second revolution is real modeled I/O).
  ScanSourceOp(const Table& table, DiskModel& disk, uint64_t row_begin,
               uint64_t row_end, uint64_t batch_rows)
      : disk_(disk),
        table_id_(table.id()),
        rpp_(table.rows_per_page()),
        cursor_(row_begin),
        end_(row_end),
        batch_rows_(batch_rows == 0 ? 1 : batch_rows),
        next_page_(row_begin / table.rows_per_page()) {}

  bool NextBatch(ClassBatch& batch) override {
    if (cursor_ >= end_) return false;
    const uint64_t batch_end = std::min(cursor_ + batch_rows_, end_);
    // High-water page cursor: charge every page this batch reaches into
    // that no earlier batch already charged.
    const uint64_t last_page = (batch_end - 1) / rpp_;
    for (; next_page_ <= last_page; ++next_page_) {
      disk_.ReadSequential(table_id_, next_page_);
    }
    disk_.CountTuples(batch_end - cursor_);
    batch.begin = cursor_;
    batch.end = batch_end;
    batch.positions = nullptr;
    batch.num_positions = 0;
    cursor_ = batch_end;
    return true;
  }

 private:
  DiskModel& disk_;
  uint32_t table_id_;
  uint64_t rpp_;
  uint64_t cursor_;
  uint64_t end_;
  uint64_t batch_rows_;
  uint64_t next_page_;
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_SCAN_SOURCE_H_
