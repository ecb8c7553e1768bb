// Batch-at-a-time execution plumbing shared by the star-join operators and
// the view builder.
//
// Every scan hands its rows on in fixed-size batches, and each physical
// step — shared dimension filtering, selection, key translation, measure
// gather, aggregation — runs as a tight loop over the whole batch.
// Batching is purely a CPU-side regrouping: page-exact I/O charging happens
// as the scan source crosses pages, so every page count (and therefore the
// 1998 modeled I/O time) is independent of the batch size. Per-query
// aggregation order is too — batches are contiguous, ascending row ranges
// and every kernel preserves ascending row order within a batch — so each
// aggregate folds its rows in row order from 0.0, exactly like the
// brute-force oracle (DESIGN.md "Vectorized execution model").

#ifndef STARSHARE_EXEC_VECTOR_BATCH_H_
#define STARSHARE_EXEC_VECTOR_BATCH_H_

#include <cstddef>

namespace starshare {

// Default rows per execution batch. Large enough to amortize per-batch
// setup and keep the per-step loops tight, small enough that the batch's
// masks / selection / key / value scratch stays cache-resident.
inline constexpr size_t kDefaultBatchRows = 1024;

struct BatchConfig {
  // Rows per batch; 0 falls back to kDefaultBatchRows.
  size_t batch_rows = kDefaultBatchRows;

  size_t EffectiveBatchRows() const {
    return batch_rows == 0 ? kDefaultBatchRows : batch_rows;
  }
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_VECTOR_BATCH_H_
