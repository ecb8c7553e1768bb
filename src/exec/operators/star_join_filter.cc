#include "exec/operators/star_join_filter.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"

namespace starshare {

std::vector<uint8_t> BuildPassTable(const StarSchema& schema,
                                    const MaterializedView& view,
                                    const DimPredicate& pred) {
  const Hierarchy& h = schema.dim(pred.dim);
  const int stored = view.StoredLevel(pred.dim);
  SS_CHECK_MSG(stored <= pred.level,
               "predicate level %d below stored level %d on %s", pred.level,
               stored, view.name().c_str());
  std::vector<uint8_t> pass(h.cardinality(stored), 0);
  for (int32_t m : pred.MembersAtLevel(h, stored)) {
    pass[static_cast<size_t>(m)] = 1;
  }
  return pass;
}

std::vector<SharedDimFilter> BuildSharedFilters(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view) {
  SS_CHECK(queries.size() <= kMaxClassQueries);
  obs::ScopedSpan span("exec.dim_filters");
  const uint32_t all_mask = AllQueriesMask(queries.size());
  std::vector<SharedDimFilter> filters;
  for (size_t d = 0; d < schema.num_dims(); ++d) {
    bool restricted = false;
    for (const auto* q : queries) {
      if (q->predicate().ForDim(d) != nullptr) {
        restricted = true;
        break;
      }
    }
    if (!restricted) continue;
    const size_t col = view.KeyColForDim(d);
    SS_CHECK(col != SIZE_MAX);
    const int stored = view.StoredLevel(d);
    SharedDimFilter filter;
    filter.col = &view.table().key_column(col);
    filter.masks.assign(schema.dim(d).cardinality(stored), all_mask);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const DimPredicate* pred = queries[qi]->predicate().ForDim(d);
      if (pred == nullptr) continue;  // query unrestricted on d: bit stays set
      const std::vector<uint8_t> pass = BuildPassTable(schema, view, *pred);
      const uint32_t bit = uint32_t{1} << qi;
      for (size_t m = 0; m < pass.size(); ++m) {
        if (!pass[m]) filter.masks[m] &= ~bit;
      }
    }
    std::vector<int32_t> accepted;
    for (size_t m = 0; m < filter.masks.size(); ++m) {
      if (filter.masks[m] != 0) accepted.push_back(static_cast<int32_t>(m));
    }
    if (!accepted.empty()) {
      filter.lo = accepted.front();
      filter.hi = accepted.back();
    }
    filter.pass_rows =
        view.has_stats()
            ? view.RowsMatching(schema.dim(d), d, stored, accepted)
            : accepted.size();
    filters.push_back(std::move(filter));
  }
  // Most selective first: the first filter is the only one that reads every
  // row of a batch.
  std::stable_sort(filters.begin(), filters.end(),
                   [](const SharedDimFilter& a, const SharedDimFilter& b) {
                     return a.pass_rows < b.pass_rows;
                   });
  span.AddCounter("dims", filters.size());
  return filters;
}

bool StarJoinFilterOp::NextBatch(ClassBatch& batch) {
  if (!child_->NextBatch(batch)) return false;
  // One dimension-table hash probe per scanned row per shared filter,
  // whether or not the row survives (the paper's CPU cost model).
  disk_.CountHashProbes((batch.end - batch.begin) * filters_.size());
  if (n_hash_ > 0) EmitMatches(batch);
  return true;
}

void StarJoinFilterOp::EmitMatches(const ClassBatch& batch) {
  const uint64_t begin = batch.begin;
  const size_t n = static_cast<size_t>(batch.end - begin);
  std::vector<QueryMatchBatch>& out = *batch.matches;
  rows_.resize(n);
  uint64_t* rows = rows_.data();
  if (filters_.empty()) {
    // No restricted dimension: every member takes every row.
    std::iota(rows, rows + n, begin);
    for (size_t qi = 0; qi < n_hash_; ++qi) {
      EmitRows(bound_[qi], rows, n, out[qi]);
    }
    return;
  }

  // The first filter is the only loop over every row: a range select
  // (16 packed keys a step where the CPU allows) keeps the rows whose key
  // lies in [lo, hi], and the exact pass masks are looked up for those
  // candidates only. Every candidate is written at the list's end, and only
  // one some member accepts advances the end, so the list compacts in
  // place without a branch.
  masks_.resize(n);
  keys_.resize(n);
  uint32_t* masks = masks_.data();
  const int32_t* keys = keys_.data();
  const SharedDimFilter& first = filters_[0];
  const size_t candidates = first.col->SelectInRange(
      begin, batch.end, first.lo, first.hi, rows, keys_.data());
  const uint32_t* first_masks = first.masks.data();
  size_t k = 0;
  for (size_t j = 0; j < candidates; ++j) {
    const uint32_t m = first_masks[static_cast<uint32_t>(keys[j])];
    rows[k] = rows[j];
    masks[k] = m;
    k += (m != 0);
  }
  // Each later filter reads only the survivors' keys and compacts the same
  // way.
  for (size_t f = 1; f < filters_.size() && k > 0; ++f) {
    const KeyColumn& col = *filters_[f].col;
    const uint32_t* fm = filters_[f].masks.data();
    size_t kept = 0;
    for (size_t j = 0; j < k; ++j) {
      const uint64_t row = rows[j];
      const uint32_t m = masks[j] & fm[static_cast<uint32_t>(col.Get(row))];
      rows[kept] = row;
      masks[kept] = m;
      kept += (m != 0);
    }
    k = kept;
  }

  uint32_t any = 0;
  for (size_t j = 0; j < k; ++j) any |= masks[j];
  for (size_t qi = 0; qi < n_hash_; ++qi) {
    const uint32_t bit = uint32_t{1} << qi;
    if ((any & bit) == 0) continue;
    if (any == bit) {
      // Every survivor carries this member's bit and no other.
      EmitRows(bound_[qi], rows, k, out[qi]);
      continue;
    }
    sel_.resize(k);
    size_t selected = 0;
    for (size_t j = 0; j < k; ++j) {
      sel_[selected] = rows[j];
      selected += (masks[j] & bit) != 0;
    }
    EmitRows(bound_[qi], sel_.data(), selected, out[qi]);
  }
}

}  // namespace starshare
