// BoundQuery: one dimensional query bound to the view it is evaluated from.
// Precomputes the dense translation arrays (exec/dim_translator.h) mapping
// the view's stored member ids to pre-shifted packed-key bits at the query's
// target levels — the "dimension hash table" of the paper's plans realized
// as perfect-hash arrays — plus the aggregation hash table. Every star-join
// operator packs matching rows' keys with translator() and folds them, in
// row order, through AccumulateRaw() / AccumulateRawBatch().

#ifndef STARSHARE_EXEC_BOUND_QUERY_H_
#define STARSHARE_EXEC_BOUND_QUERY_H_

#include <vector>

#include "cube/materialized_view.h"
#include "exec/dim_translator.h"
#include "exec/hash_aggregator.h"
#include "query/query.h"
#include "query/result.h"

namespace starshare {

class BoundQuery {
 public:
  BoundQuery(const StarSchema& schema, const DimensionalQuery& query,
             const MaterializedView& view)
      : query_(&query),
        agg_(schema, query.target(), query.agg(),
             std::min<uint64_t>(query.EstimatedGroups(schema),
                                view.table().num_rows())),
        measures_(&view.table().measure_column(query.measure())) {
    SS_CHECK_MSG(view.spec().CanAnswer(query.RequiredSpec(schema)),
                 "view %s cannot answer query Q%d", view.name().c_str(),
                 query.id());
    SS_CHECK_MSG(query.measure() < view.table().num_measures(),
                 "query Q%d aggregates measure %zu but view %s has %zu",
                 query.id(), query.measure(), view.name().c_str(),
                 view.table().num_measures());
    translator_ =
        DimTranslator(schema, query.target(), view, agg_.packer());
  }

  BoundQuery(const BoundQuery&) = delete;
  BoundQuery& operator=(const BoundQuery&) = delete;
  BoundQuery(BoundQuery&&) = default;

  const DimensionalQuery& query() const { return *query_; }

  // Adds one packed group key and measure value to the aggregation. Packing
  // (translator()) is read-only, so morsel-parallel workers do it
  // concurrently; folding runs only on the merging thread, in serial row
  // order, so the aggregation is bit-identical at any thread count.
  void AccumulateRaw(uint64_t packed_key, double value) {
    agg_.Add(packed_key, value);
  }
  void AccumulateRawBatch(const uint64_t* keys, const double* values,
                          size_t n) {
    agg_.AddBatch(keys, values, n);
  }

  // The translation arrays and the raw measure column, for batch kernels
  // that pack keys and gather values themselves.
  const DimTranslator& translator() const { return translator_; }
  const double* measure_data() const { return measures_->data(); }

  size_t num_retained() const { return translator_.num_lanes(); }

  // Resident bytes of the aggregation table (per-node memory accounting).
  uint64_t AggMemoryBytes() const { return agg_.MemoryBytes(); }

  QueryResult Finish() const { return agg_.Finish(); }

 private:
  const DimensionalQuery* query_;
  HashAggregator agg_;
  const std::vector<double>* measures_;
  DimTranslator translator_;
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_BOUND_QUERY_H_
