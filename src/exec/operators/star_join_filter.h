// Star-join filter (physical node kind kStarJoinFilter): evaluates the
// shared dimension pass masks (§3.1, Fig. 2) over each pulled scan batch
// and emits every hash member's matches. It evaluates the filters
// selective-first: the filter that lets the fewest rows through selects
// the batch's candidates, the rows whose key lies between its smallest and
// largest accepted member (KeyColumn::SelectInRange), and looks up the pass
// masks of the candidates only, into a compact survivor list of
// (row, mask) pairs; each later filter runs only over the survivors, and
// each member selects its rows from the list. Survivors stay in ascending
// row order, so every member's match stream is the one a row-by-row probe
// would emit.
//
// Also home to the shared dimension filters it evaluates: the per-predicate
// pass tables and the per-class pass masks built from them.

#ifndef STARSHARE_EXEC_OPERATORS_STAR_JOIN_FILTER_H_
#define STARSHARE_EXEC_OPERATORS_STAR_JOIN_FILTER_H_

#include <cstdint>
#include <vector>

#include "cube/materialized_view.h"
#include "exec/operators/operator.h"
#include "query/query.h"
#include "storage/disk_model.h"

namespace starshare {

// Maximum queries per shared class (per-dimension pass masks are 32-bit).
inline constexpr size_t kMaxClassQueries = 32;

// Dense pass table for one predicate on the view's stored level of the
// predicate's dimension: pass[key] == 1 iff `key` maps up into the member
// set. (The hash table a relational engine would build on the dimension
// table, realized as an array because member ids are dense.)
std::vector<uint8_t> BuildPassTable(const StarSchema& schema,
                                    const MaterializedView& view,
                                    const DimPredicate& pred);

// One shared dimension filter: a pass mask per stored member, bit q set iff
// hash query q accepts that member (queries that do not restrict the
// dimension accept everything). This is the shared dimension hash table of
// Fig. 2 carrying per-query predicate flags. Read-only once built, so
// parallel workers share one copy.
struct SharedDimFilter {
  const KeyColumn* col;
  std::vector<uint32_t> masks;
  // Rows of the view whose key some query accepts (a mask != 0): the view's
  // statistics when it has them, else the number of accepted members.
  uint64_t pass_rows = 0;
  // The smallest and largest accepted member; lo > hi when none is.
  int32_t lo = 0;
  int32_t hi = -1;
};

// Builds the filters for up to kMaxClassQueries hash queries (callers have
// already rejected larger classes with a Status), one per dimension some
// query restricts, sorted by ascending pass_rows; ties keep dimension order.
std::vector<SharedDimFilter> BuildSharedFilters(
    const StarSchema& schema,
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view);

// Mask with one bit per query in [0, n).
inline uint32_t AllQueriesMask(size_t n) {
  return n == 0 ? 0 : static_cast<uint32_t>((uint64_t{1} << n) - 1);
}

class StarJoinFilterOp : public BatchOperator {
 public:
  // `filters` come from BuildSharedFilters, in its order. `bound` holds the
  // class's live members, hash members in slots [0, n_hash). Emits only
  // those slots; index members are handled by a BitmapFilterOp stacked
  // above (§3.3).
  StarJoinFilterOp(BatchOperator* child, DiskModel& disk,
                   const std::vector<SharedDimFilter>& filters,
                   const std::vector<BoundQuery>& bound, size_t n_hash)
      : child_(child),
        disk_(disk),
        filters_(filters),
        bound_(bound),
        n_hash_(n_hash) {}

  bool NextBatch(ClassBatch& batch) override;

 private:
  // Emits each hash member's matches from one batch.
  void EmitMatches(const ClassBatch& batch);

  BatchOperator* child_;
  DiskModel& disk_;
  const std::vector<SharedDimFilter>& filters_;
  const std::vector<BoundQuery>& bound_;
  size_t n_hash_;

  // The current batch's survivor list: ascending absolute row ids and the
  // pass mask each row carries so far. The first filter's candidates and
  // their keys fill rows_ and keys_ before it compacts them in place.
  std::vector<uint64_t> rows_;
  std::vector<uint32_t> masks_;
  std::vector<int32_t> keys_;
  std::vector<uint64_t> sel_;  // one member's selection (absolute row ids)
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_STAR_JOIN_FILTER_H_
