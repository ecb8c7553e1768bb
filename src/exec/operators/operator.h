// The composable batch-pull operator family the physical plan executes.
// Every §3 shared operator — serial or morsel-parallel — is one chain of
// these operators:
//
//   ScanSourceOp / ProbeSourceOp  ->  StarJoinFilterOp / BitmapFilterOp
//
// pulled by the one pass driver (exec/operators/pass_driver.h), whose
// callers route the per-query match streams into AggregateSink.
// Parallelism is purely a driver property: serially one chain runs over
// the whole input; engaged, the same chain runs per morsel on a worker
// DiskModel and the buffered matches are consumed in morsel order. Both
// fold every aggregate in identical order and charge identical IoStats.
//
// Contract: Open() once, then NextBatch(batch) until it returns false.
// Filters pull from their child, so only the chain root is driven. A batch
// carries the contiguous row span it covers plus, per class member slot,
// the (packed key, measure) matches of that span in ascending row order.

#ifndef STARSHARE_EXEC_OPERATORS_OPERATOR_H_
#define STARSHARE_EXEC_OPERATORS_OPERATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/bound_query.h"

namespace starshare {

// One query's matches from one batch: parallel (packed key, measure value)
// arrays, ascending row order.
struct QueryMatchBatch {
  std::vector<uint64_t> keys;
  std::vector<double> values;

  void Clear() {
    keys.clear();
    values.clear();
  }
  size_t size() const { return keys.size(); }
  void Append(const uint64_t* k, const double* v, size_t n) {
    keys.insert(keys.end(), k, k + n);
    values.insert(values.end(), v, v + n);
  }
};

// One pulled batch. Sources set the row span (and, on the probe path, the
// position slice backing it); filters append matches into `matches`, one
// slot per bound class member. The driver owns and clears the slots.
struct ClassBatch {
  uint64_t begin = 0;  // first row covered (inclusive)
  uint64_t end = 0;    // one past the last row covered

  // Probe path only: the sorted candidate positions within [begin, end).
  const uint64_t* positions = nullptr;
  size_t num_positions = 0;

  std::vector<QueryMatchBatch>* matches = nullptr;
};

class BatchOperator {
 public:
  virtual ~BatchOperator() = default;

  virtual void Open() {}
  // Fills `batch`; returns false when the input is exhausted.
  virtual bool NextBatch(ClassBatch& batch) = 0;
  virtual void Close() {}
};

// Packs keys and gathers measures for `n` selected rows (ascending) into
// one member's match slot — the shared emission kernel of both filters.
inline void EmitRows(const BoundQuery& bound, const uint64_t* rows, size_t n,
                     QueryMatchBatch& out) {
  if (n == 0) return;
  const size_t base = out.keys.size();
  out.keys.resize(base + n);
  out.values.resize(base + n);
  bound.translator().PackRows(rows, n, out.keys.data() + base);
  const double* measures = bound.measure_data();
  for (size_t i = 0; i < n; ++i) {
    out.values[base + i] = measures[rows[i]];
  }
}

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_OPERATOR_H_
