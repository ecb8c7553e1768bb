// Bitmap filter (physical node kind kBitmapFilter): filters each pulled
// batch through every index member's private candidate bitmap + residual
// predicates and emits those members' matches (slots [slot_base,
// slot_base + bitmaps.size())). Stacked over a ScanSourceOp chain it is the
// hybrid §3.3 index side; over a ProbeSourceOp it routes the shared §3.2
// probe stream per member. Streams are ascending-row per member either way.
//
// Also home to what feeds it: each member's candidate bitmap (steps 1–5 of
// §3.2) and the residual filter for its unindexed predicates.

#ifndef STARSHARE_EXEC_OPERATORS_BITMAP_FILTER_H_
#define STARSHARE_EXEC_OPERATORS_BITMAP_FILTER_H_

#include <vector>

#include "common/status.h"
#include "cube/materialized_view.h"
#include "exec/operators/operator.h"
#include "index/bitmap.h"
#include "query/query.h"
#include "storage/disk_model.h"

namespace starshare {

// Applies the restricted dimensions of a query that have no usable index:
// dense pass tables over the view's stored keys, tested per retrieved
// tuple.
class ResidualFilter {
 public:
  ResidualFilter(const StarSchema& schema, const MaterializedView& view,
                 const std::vector<const DimPredicate*>& preds);

  bool Matches(uint64_t row) const {
    for (const auto& f : filters_) {
      if (!f.pass[static_cast<size_t>(f.col->Get(row))]) return false;
    }
    return true;
  }

  bool empty() const { return filters_.empty(); }
  size_t num_predicates() const { return filters_.size(); }

 private:
  struct Filter {
    const KeyColumn* col;
    std::vector<uint8_t> pass;
  };
  std::vector<Filter> filters_;
};

// The query's candidate bitmap over `view` (steps 1–5 of §3.2) from the
// indexed restricted dimensions. Charges index I/O. Predicates without an
// index are appended to `residual` (may be null only if the caller knows
// every restricted dimension is indexed). At least one restricted
// dimension must be indexed.
Bitmap BuildResultBitmap(const StarSchema& schema,
                         const DimensionalQuery& query,
                         const MaterializedView& view, DiskModel& disk,
                         std::vector<const DimPredicate*>* residual = nullptr);

// BuildResultBitmap for one index member of a class, attributing any fault
// during its (private) index I/O — the "exec.build_bitmap" site or a
// latched "disk.read_index" — to that member alone.
Status BuildMemberBitmap(const StarSchema& schema,
                         const DimensionalQuery& query,
                         const MaterializedView& view, DiskModel& disk,
                         Bitmap* bitmap,
                         std::vector<const DimPredicate*>* residual);

class BitmapFilterOp : public BatchOperator {
 public:
  // `batch_rows` sizes the per-member batches of the probe mode.
  BitmapFilterOp(BatchOperator* child, const std::vector<Bitmap>& bitmaps,
                 const std::vector<ResidualFilter>& residuals,
                 const std::vector<BoundQuery>& bound, size_t slot_base,
                 size_t batch_rows)
      : child_(child),
        bitmaps_(bitmaps),
        residuals_(residuals),
        bound_(bound),
        slot_base_(slot_base),
        batch_rows_(batch_rows) {}

  bool NextBatch(ClassBatch& batch) override;

 private:
  // Scan mode (§3.3): slice each member's bitmap over the batch's row span.
  void ProcessScan(const ClassBatch& batch);
  // Probe mode (§3.2): test each probed position against each member.
  void ProcessProbe(const ClassBatch& batch);

  BatchOperator* child_;
  const std::vector<Bitmap>& bitmaps_;
  const std::vector<ResidualFilter>& residuals_;
  const std::vector<BoundQuery>& bound_;
  size_t slot_base_;
  size_t batch_rows_;

  std::vector<uint64_t> sel_;  // selection vector (absolute row ids)
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_BITMAP_FILTER_H_
