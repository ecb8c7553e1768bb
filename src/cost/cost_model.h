// The optimizer's cost model, implementing §5.1 of the paper.
//
// Costs are in modeled milliseconds: I/O terms are exact page counts times
// the DiskTimings constants (the same constants the benches use to convert
// measured page counts into modeled time), CPU terms are per-tuple /
// per-probe constants calibrated to the executor's in-memory speeds.
//
// The central §5.1 quantities:
//   * hash star join of query X from shared base B:
//       C_{B->X} = Cost_CPU + ΔCost_IO          (ΔIO = what X adds to the
//                                                class's shared I/O)
//   * index star join of X from shared base B:
//       C_{B->X} = Cost_CPU + Cost_IO_index + ΔCost_IO
//   * unused table U: the full scan / probe I/O is charged, nothing shared.
//   * class cost = Σ_k (nonshared CPU_k + nonshared IO_k)
//                  + Cost(shared IO) + Cost(shared CPU).
//
// Class composition rules (paper §3 and §5.1):
//   * if any member scans (hash join), the scan is the shared I/O and every
//     index member rides it (§3.3): its probe I/O vanishes, it keeps its
//     index-lookup I/O and bitmap CPU and filters tuples during the scan;
//   * if all members probe (index join), the shared I/O is one probe pass
//     with the OR of the result bitmaps (§3.2), estimated with Yao's
//     distinct-page formula on the union cardinality.

#ifndef STARSHARE_COST_COST_MODEL_H_
#define STARSHARE_COST_COST_MODEL_H_

#include <vector>

#include "cube/materialized_view.h"
#include "plan/plan.h"
#include "query/query.h"
#include "schema/star_schema.h"
#include "storage/disk_model.h"

namespace starshare {

// Per-operation CPU constants (nanoseconds). Defaults are calibrated to the
// StarShare executor on commodity hardware; scale them together to model
// slower CPUs (the paper's Pentium Pro would be ~50x).
struct CpuCosts {
  double tuple_ns = 6;          // streaming a tuple through a scan
  double probe_ns = 10;         // one dimension-hash-table probe
  double check_ns = 2;          // per-tuple per-query mask/bitmap test
  double agg_ns = 28;           // one aggregation-hash-table update
  double build_entry_ns = 45;   // one dimension-hash-table entry build
  double rid_ns = 3;            // materializing one RID into a bitmap
  double bitmap_word_ns = 0.6;  // one 64-bit word of bitmap AND/OR
};

// Expected distinct pages touched when probing `rows` uniformly distributed
// matches in a table of `pages` pages (Yao's formula, binomial form).
double YaoDistinctPages(uint64_t pages, double rows);

class CostModel {
 public:
  CostModel(const StarSchema& schema, DiskTimings disk, CpuCosts cpu)
      : schema_(schema), disk_(disk), cpu_(cpu) {}

  const DiskTimings& disk() const { return disk_; }

  // ---- CPU price terms, in nanoseconds ----------------------------------
  // Every CpuCosts constant is read in these functions and nowhere else.
  // The estimates below and ClassCostTracker convert a term to ms at their
  // own site, so a term's arithmetic grouping is part of every estimate.

  // The shared scan: `rows` tuples streamed, each probing `probes`
  // dimension hash tables, plus `build_entries` hash entries built.
  double SharedScanNs(double rows, double probes, double build_entries) const;
  // A hash member of a shared scan: a check per scanned row and an
  // aggregation update per match.
  double HashMemberNs(double rows, double match) const;
  // An index member's tuple CPU: a check per `check_rows` (the scanned
  // rows when it rides a scan, the union's rows in an all-index class),
  // `residual` probes per candidate, and per match `retained` key probes
  // plus an update.
  double IndexMemberNs(double check_rows, double cand, double residual,
                       double match, double retained) const;
  // A standalone index join's tuple CPU: per candidate `residual` probes
  // and a check, per match `retained` key probes and an update.
  double IndexJoinNs(double cand, double residual, double match,
                     double retained) const;
  // A check on each of `rows` rows.
  double CheckNs(double rows) const;
  // Setting `rows` RID bits, and ANDing `words` bitmap words.
  double RidNs(double rows) const;
  double BitmapWordsNs(double words) const;
  // Re-aggregating `rows` groups: a touch, `lanes` key translations and an
  // update each.
  double RollupNs(double rows, double lanes) const;

  // ---- Per-(query, view) estimates -------------------------------------

  // Selectivity of one predicate against `view`: exact (from the view's
  // per-member statistics) when available, uniform otherwise.
  double DimSelectivity(const DimPredicate& pred,
                        const MaterializedView& view) const;

  // Expected rows of `view` passing `query`'s selection (product of
  // per-dimension selectivities; exact per dimension with statistics).
  double MatchRows(const DimensionalQuery& query,
                   const MaterializedView& view) const;

  // Full sequential scan of `view`, in ms.
  double ScanIoMs(const MaterializedView& view) const;

  // True if `view` has a bitmap join index on at least one dimension
  // `query` restricts: the §3.2 method applies (unindexed predicates are
  // applied as residual filters on retrieved tuples).
  bool IndexAvailable(const DimensionalQuery& query,
                      const MaterializedView& view) const;

  // Fraction of view rows the *indexed* predicates select — the probe
  // cardinality of an index plan (residual predicates filter afterwards).
  double CandidateSelectivity(const DimensionalQuery& query,
                              const MaterializedView& view) const;

  // Restricted dimensions without an index on `view`.
  size_t ResidualDims(const DimensionalQuery& query,
                      const MaterializedView& view) const;

  // Index-segment I/O to fetch the predicate bitmaps (Cost_IO_index).
  double IndexLookupIoMs(const DimensionalQuery& query,
                         const MaterializedView& view) const;

  // CPU of building/ANDing the per-dimension bitmaps.
  double IndexBitmapCpuMs(const DimensionalQuery& query,
                          const MaterializedView& view) const;

  // Expected distinct pages touched when probing the matches of `query`:
  // Yao's uniform-spread formula for unclustered tables, a contiguous-runs
  // model for clustered views (ViewBuilder output is sorted by key, so
  // matches of prefix-structured predicates land on few pages).
  double ProbeDistinctPages(const DimensionalQuery& query,
                            const MaterializedView& view) const;

  // Random I/O of probing the matches of `query` alone.
  double ProbeIoMs(const DimensionalQuery& query,
                   const MaterializedView& view) const;

  // Random I/O of one shared probe pass over the OR of all members' result
  // bitmaps.
  double SharedProbeIoMs(const std::vector<const DimensionalQuery*>& queries,
                         const MaterializedView& view) const;

  // Shared CPU of a scan-based class: streaming every tuple plus probing
  // the union of the hash members' restricted dimensions, plus building
  // those dimension hash tables.
  double SharedScanCpuMs(
      const std::vector<const DimensionalQuery*>& hash_members,
      const MaterializedView& view) const;

  // Standalone (class-of-one) cost of each method; index returns +inf when
  // unavailable.
  double HashJoinCostMs(const DimensionalQuery& query,
                        const MaterializedView& view) const;
  double IndexJoinCostMs(const DimensionalQuery& query,
                         const MaterializedView& view) const;

  // The paper's X.CostOfUsing(U) for an unused table: best method, full
  // I/O charged. Returns (method, ms).
  std::pair<JoinMethod, double> BestSingleCost(
      const DimensionalQuery& query, const MaterializedView& view) const;

  // ---- Class-level estimates --------------------------------------------

  // Builds the cheapest ClassPlan for `queries` on `base`: chooses each
  // member's join method, decides between the scan-based (§3.1/§3.3) and
  // all-index (§3.2) shared forms, and fills every estimate field.
  ClassPlan MakeClassPlan(MaterializedView* base,
                          std::vector<const DimensionalQuery*> queries) const;

  // Total estimated ms of the cheapest class plan (convenience).
  double ClassCostMs(MaterializedView* base,
                     std::vector<const DimensionalQuery*> queries) const;

  // The paper's CostOfAdd(N) for class i:
  //   Cost(Class_i ∪ N | base) - Cost(Class_i | base).
  double CostOfAddMs(const ClassPlan& cls, const DimensionalQuery& query) const;

  // Re-derives estimates for an externally assembled plan (methods fixed).
  void AnnotatePlan(GlobalPlan& plan) const;

  // ---- Rollup (derived-input) estimates ---------------------------------

  // CPU of re-aggregating `parent_rows` already-computed groups into
  // `child`'s coarser target: per group one streaming touch, one key
  // translation per retained child dimension, one aggregation update — the
  // same per-tuple terms SharedScanCpuMs charges a base scan, with no I/O
  // term at all because derived rows live in memory. The lattice scheduler
  // weighs this against CostOfAddMs (joining the base-scan class) when
  // picking each level's parent.
  double RollupCpuMs(double parent_rows, const DimensionalQuery& child) const;

 private:
  // Queries of a class as raw pointers.
  static std::vector<const DimensionalQuery*> Queries(const ClassPlan& cls);

  // Restricted dimensions of `query` that exist on `view`.
  std::vector<size_t> RestrictedDims(const DimensionalQuery& query,
                                     const MaterializedView& view) const;

  // Fills the estimate fields of `cls` given fixed member methods.
  void ComputeClassEstimates(ClassPlan& cls) const;

  const StarSchema& schema_;
  DiskTimings disk_;
  CpuCosts cpu_;
};

}  // namespace starshare

#endif  // STARSHARE_COST_COST_MODEL_H_
