#include "exec/operators/bitmap_filter.h"

#include "common/fault_injector.h"
#include "common/str_util.h"
#include "exec/operators/star_join_filter.h"
#include "exec/vector_batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace starshare {
namespace {

// Streams one index member's candidate rows in [row_begin, row_end) — its
// bitmap sliced word-at-a-time, residual-filtered — through
// `sink(keys, values, n)` in ascending row order, batch-at-a-time.
template <typename Sink>
void ForEachIndexMemberBatch(const Bitmap& bitmap, uint64_t row_begin,
                             uint64_t row_end, const ResidualFilter& residual,
                             const BoundQuery& bound, size_t batch_rows,
                             Sink&& sink) {
  if (batch_rows == 0) batch_rows = kDefaultBatchRows;
  std::vector<uint64_t> rows;
  rows.reserve(batch_rows);
  std::vector<uint64_t> keys;
  std::vector<double> values;
  const auto flush = [&] {
    if (rows.empty()) return;
    if (!residual.empty()) {
      size_t kept = 0;
      for (const uint64_t row : rows) {
        if (residual.Matches(row)) rows[kept++] = row;
      }
      rows.resize(kept);
      if (rows.empty()) return;
    }
    keys.resize(rows.size());
    values.resize(rows.size());
    bound.translator().PackRows(rows.data(), rows.size(), keys.data());
    const double* measures = bound.measure_data();
    for (size_t i = 0; i < rows.size(); ++i) values[i] = measures[rows[i]];
    sink(keys.data(), values.data(), keys.size());
    rows.clear();
  };
  bitmap.ForEachSetBitInRange(row_begin, row_end, [&](uint64_t row) {
    rows.push_back(row);
    if (rows.size() == batch_rows) flush();
  });
  flush();
}

}  // namespace

ResidualFilter::ResidualFilter(
    const StarSchema& schema, const MaterializedView& view,
    const std::vector<const DimPredicate*>& preds) {
  for (const DimPredicate* pred : preds) {
    const size_t col = view.KeyColForDim(pred->dim);
    SS_CHECK(col != SIZE_MAX);
    filters_.push_back(Filter{&view.table().key_column(col),
                              BuildPassTable(schema, view, *pred)});
  }
}

Bitmap BuildResultBitmap(const StarSchema& schema,
                         const DimensionalQuery& query,
                         const MaterializedView& view, DiskModel& disk,
                         std::vector<const DimPredicate*>* residual) {
  Bitmap result;
  bool first = true;
  for (const auto& pred : query.predicate().conjuncts()) {
    // Prefer the index at the predicate's own level (one segment per
    // predicate member); fall back to the stored-level index with the
    // member set expanded to descendants; predicates on unindexed
    // dimensions become residual filters applied per retrieved tuple.
    const BitmapJoinIndex* index = view.IndexOn(pred.dim, pred.level);
    std::vector<int32_t> members = pred.members;
    if (index == nullptr) {
      index = view.IndexOn(pred.dim);
      members = pred.MembersAtLevel(schema.dim(pred.dim),
                                    view.StoredLevel(pred.dim));
    }
    if (index == nullptr) {
      SS_CHECK_MSG(residual != nullptr,
                   "no bitmap index on dim %s of view %s and no residual "
                   "filtering requested",
                   schema.dim(pred.dim).dim_name().c_str(),
                   view.name().c_str());
      residual->push_back(&pred);
      continue;
    }
    Bitmap dim_bitmap = index->Lookup(members, disk);  // ORed per §3.2
    if (first) {
      result = std::move(dim_bitmap);
      first = false;
    } else {
      result.AndWith(dim_bitmap);
    }
  }
  SS_CHECK_MSG(!first,
               "index star join requires >= 1 indexed restricted dimension");
  return result;
}

Status BuildMemberBitmap(const StarSchema& schema,
                         const DimensionalQuery& query,
                         const MaterializedView& view, DiskModel& disk,
                         Bitmap* bitmap,
                         std::vector<const DimPredicate*>* residual) {
  static obs::Counter& bitmaps = obs::Metrics().counter("exec.bitmaps");
  bitmaps.Add();
  obs::ScopedSpan span("exec.bitmap", "", query.id());
  if (FaultHit("exec.build_bitmap", query.id())) {
    Status fault = Status::Internal(StrFormat(
        "injected fault building result bitmap for query %d", query.id()));
    span.SetStatus(fault);
    return fault;
  }
  *bitmap = BuildResultBitmap(schema, query, view, disk, residual);
  Status device = disk.TakeFault();
  if (!device.ok()) {
    Status fault =
        Status(device.code(),
               StrFormat("query %d bitmap construction: %s", query.id(),
                         device.message().c_str()));
    span.SetStatus(fault);
    return fault;
  }
  if (span.active()) span.AddRows(bitmap->CountSetBits());
  return Status::Ok();
}

bool BitmapFilterOp::NextBatch(ClassBatch& batch) {
  if (!child_->NextBatch(batch)) return false;
  if (batch.positions != nullptr) {
    ProcessProbe(batch);
  } else {
    ProcessScan(batch);
  }
  return true;
}

void BitmapFilterOp::ProcessScan(const ClassBatch& batch) {
  for (size_t k = 0; k < bitmaps_.size(); ++k) {
    sel_.clear();
    bitmaps_[k].ForEachSetBitInRange(
        batch.begin, batch.end, [&](uint64_t row) { sel_.push_back(row); });
    const ResidualFilter& residual = residuals_[k];
    if (!residual.empty()) {
      size_t kept = 0;
      for (const uint64_t row : sel_) {
        if (residual.Matches(row)) sel_[kept++] = row;
      }
      sel_.resize(kept);
    }
    EmitRows(bound_[slot_base_ + k], sel_.data(), sel_.size(),
             (*batch.matches)[slot_base_ + k]);
  }
}

void BitmapFilterOp::ProcessProbe(const ClassBatch& batch) {
  for (size_t k = 0; k < bitmaps_.size(); ++k) {
    QueryMatchBatch& out = (*batch.matches)[slot_base_ + k];
    ForEachIndexMemberBatch(
        bitmaps_[k], batch.begin, batch.end, residuals_[k],
        bound_[slot_base_ + k], batch_rows_,
        [&out](const uint64_t* keys, const double* values, size_t n) {
          out.Append(keys, values, n);
        });
  }
}

}  // namespace starshare
