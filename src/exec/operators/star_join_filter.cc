#include "exec/operators/star_join_filter.h"

#include <algorithm>

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
    SharedDimFilter filter;
    filter.col = &view.table().key_column(col);
    filter.masks.assign(
        schema.dim(d).cardinality(view.StoredLevel(d)), all_mask);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const DimPredicate* pred = queries[qi]->predicate().ForDim(d);
      if (pred == nullptr) continue;  // query unrestricted on d: bit stays set
      const std::vector<uint8_t> pass = BuildPassTable(schema, view, *pred);
      const uint32_t bit = uint32_t{1} << qi;
      for (size_t m = 0; m < pass.size(); ++m) {
        if (!pass[m]) filter.masks[m] &= ~bit;
      }
    }
    filters.push_back(std::move(filter));
  }
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
  const size_t n = static_cast<size_t>(batch.end - batch.begin);
  masks_.resize(n);
  if (filters_.empty()) {
    std::fill(masks_.begin(), masks_.end(), all_mask_);
  } else {
    // Column-at-a-time: load the first filter's masks, then AND the rest.
    // KeyColumn::ForEach decodes packed key words 64 bits at a time into
    // the fused mask lookup, so compressed batches never materialize an
    // intermediate int32 array.
    uint32_t* masks = masks_.data();
    const uint64_t begin = batch.begin;
    const SharedDimFilter& first = filters_[0];
    const uint32_t* fmasks = first.masks.data();
    first.col->ForEach(begin, batch.end, [&](uint64_t row, int32_t v) {
      masks[row - begin] = fmasks[static_cast<uint32_t>(v)];
    });
    for (size_t f = 1; f < filters_.size(); ++f) {
      const SharedDimFilter& filter = filters_[f];
      const uint32_t* fm = filter.masks.data();
      filter.col->ForEach(begin, batch.end, [&](uint64_t row, int32_t v) {
        masks[row - begin] &= fm[static_cast<uint32_t>(v)];
      });
    }
  }
  uint32_t any = 0;
  for (size_t i = 0; i < n; ++i) any |= masks_[i];
  for (size_t qi = 0; qi < n_hash_; ++qi) {
    const uint32_t bit = 1u << qi;
    if ((any & bit) == 0) continue;
    sel_.clear();
    for (size_t i = 0; i < n; ++i) {
      if ((masks_[i] & bit) != 0) sel_.push_back(batch.begin + i);
    }
    EmitRows(bound_[qi], sel_.data(), sel_.size(), (*batch.matches)[qi]);
  }
}

}  // namespace starshare
