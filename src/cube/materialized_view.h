// A materialized group-by: a granularity (GroupBySpec) plus the physical
// table holding its rows, plus optional bitmap join indexes on its key
// columns. The base fact table is represented as the view at the Base spec
// (the paper's "lowest level LL", which it also treats as a materialized
// group-by).
//
// View tables store SUM(measure) per cell, so SUM queries can be answered
// from any view that is finer-or-equal on every dimension; other aggregates
// are answered from the base table only (enforced by the optimizer).

#ifndef STARSHARE_CUBE_MATERIALIZED_VIEW_H_
#define STARSHARE_CUBE_MATERIALIZED_VIEW_H_

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>

#include "index/bitmap_join_index.h"
#include "schema/groupby_spec.h"
#include "schema/star_schema.h"
#include "storage/table.h"

namespace starshare {

class MaterializedView {
 public:
  // `table` must have one key column per retained dimension of `spec`, in
  // schema dimension order (ViewBuilder guarantees this).
  MaterializedView(const StarSchema& schema, GroupBySpec spec, Table* table);

  const GroupBySpec& spec() const { return spec_; }
  Table& table() const { return *table_; }
  const std::string& name() const { return table_->name(); }

  // The table's key column holding dimension `d`, or SIZE_MAX if `d` is
  // aggregated away in this view.
  size_t KeyColForDim(size_t d) const { return key_col_for_dim_[d]; }

  // Level at which dimension `d` is stored.
  int StoredLevel(size_t d) const { return spec_.level(d); }

  // Builds bitmap join indexes over dimension `d` at every hierarchy level
  // from the stored level up to the top (the paper's join indexes exist on
  // higher-level attributes like A' directly, so a predicate at any level
  // fetches one segment per predicate member). Charged to `disk`.
  void BuildIndex(const StarSchema& schema, size_t d, DiskModel& disk);

  // True when the table is sorted lexicographically by its key columns
  // (ViewBuilder's clustered=true output; heap-order views and generated /
  // attached base data are not). The cost model uses this to estimate probe
  // I/O: matches in a clustered table form contiguous runs instead of
  // Yao's uniform spread.
  bool clustered() const { return clustered_; }
  void set_clustered(bool clustered) { clustered_ = clustered; }

  bool HasIndexOn(size_t d) const;
  // Index over dimension `d` at exactly `level`, or nullptr.
  const BitmapJoinIndex* IndexOn(size_t d, int level) const;
  // Index over dimension `d` at its stored level, or nullptr.
  const BitmapJoinIndex* IndexOn(size_t d) const {
    return IndexOn(d, spec_.level(d));
  }

  // Dimensions with indexes, in schema order.
  std::vector<size_t> IndexedDims() const;

  // Installs `table`, this view's rows after an append (incremental view
  // maintenance): every old row in its old order, plus one inserted row
  // before each old row listed in `inserted_before` (ascending; the old
  // row count for rows after every old one), as RefreshedTable describes.
  // `table` may be the current table grown in place (the base). Statistics
  // add the inserted rows' keys, and every index shifts its old RIDs past
  // the rows inserted at or before them and adds each inserted row to its
  // member's list — so both equal ComputeStats and BuildIndex over `table`
  // without re-reading it. Charges `disk` exactly what that rebuild would:
  // one scan of `table` per indexed dimension plus every level's segment
  // writes.
  void SpliceRows(const StarSchema& schema, Table* table,
                  std::span<const uint64_t> inserted_before, DiskModel& disk);

  // ---- Statistics ---------------------------------------------------------
  // Exact per-member row counts at the stored level of every retained
  // dimension, collected with one in-memory pass (ComputeStats). The cost
  // model uses them instead of the uniform assumption, which matters for
  // skewed (e.g. Zipf) data.

  // (Re)collects the counts. Cheap (no I/O charged: real systems piggyback
  // statistics collection on loads and builds).
  void ComputeStats(const StarSchema& schema);

  bool has_stats() const { return !member_prefix_.empty(); }

  // Rows whose dimension-`d` stored key descends from one of `members`, at
  // `level` (the stored level or above, up to ALL; `hierarchy` is d's).
  // Each member's descendants are one id range, summed from the prefix
  // counts, so the cost is O(|members|) at any level. Members must be
  // sorted and distinct, as a normalized DimPredicate's are. Requires
  // has_stats().
  uint64_t RowsMatching(const Hierarchy& hierarchy, size_t d, int level,
                        std::span<const int32_t> members) const;

  // Fraction of rows matching, i.e. RowsMatching / num_rows.
  double SelectivityOf(const Hierarchy& hierarchy, size_t d, int level,
                       std::span<const int32_t> members) const;

 private:
  GroupBySpec spec_;
  Table* table_;  // owned by the Catalog
  bool clustered_ = false;
  std::vector<size_t> key_col_for_dim_;
  // Keyed by (dimension << 8) | level.
  std::unordered_map<size_t, BitmapJoinIndex> indexes_;
  // member_prefix_[d][m]: rows whose stored key on dimension d is below m
  // (cardinality + 1 entries); empty inner vectors for dimensions
  // aggregated away; entirely empty before ComputeStats.
  std::vector<std::vector<uint64_t>> member_prefix_;
};

}  // namespace starshare

#endif  // STARSHARE_CUBE_MATERIALIZED_VIEW_H_
