// Materializes a group-by table from a finer source (the base table or any
// view whose spec CanAnswer the target): scan, map each retained key up the
// hierarchy, hash-aggregate SUM(measure), emit a new table.
//
// Row order (Emit order, see EmitSortKey): by default cells are emitted in a
// deterministic pseudo-random permutation (hash of the packed group key) —
// the heap/hash-file layout a paper-era system dumps its aggregation table
// into, under which index probes spread Yao-style. Pass clustered=true to
// emit sorted lexicographically by key instead (an index-organized view),
// which makes prefix-structured predicates probe contiguous runs; the
// MaterializedView must then be marked clustered() so the cost model knows.

#ifndef STARSHARE_CUBE_VIEW_BUILDER_H_
#define STARSHARE_CUBE_VIEW_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/materialized_view.h"
#include "exec/memory_budget.h"
#include "exec/spill.h"
#include "parallel/policy.h"
#include "schema/groupby_spec.h"
#include "schema/star_schema.h"
#include "storage/disk_model.h"
#include "storage/table.h"

namespace starshare {

class KeyPacker;
class NodeExec;
namespace obs {
class ScopedSpan;
}  // namespace obs

// Emit order, the order every view table lists its cells in: ascending
// EmitSortKey of the packed group key (exec/key_packer.h), ties broken by
// the packed key itself. The sort key is the key's splitmix64 hash, or for
// clustered views the packed key (lexicographic in the key columns).
// Builds sort into this order and Refresh merges into it, so a refreshed
// view is laid out exactly as a rebuilt one.
uint64_t EmitSortKey(uint64_t packed_key, bool clustered);

// A view table refreshed by ViewBuilder::Refresh: every old row in its old
// order (a cell the delta touches keeps its row), plus one inserted row per
// cell new to the view.
struct RefreshedTable {
  std::unique_ptr<Table> table;
  // Per inserted row, in row order: the old row it was inserted before
  // (ascending; the old row count for a row after every old one). Inserted
  // row j is row inserted_before[j] + j of `table`; old row r is row r plus
  // the number of entries <= r.
  std::vector<uint64_t> inserted_before;
};

class ViewBuilder {
 public:
  explicit ViewBuilder(const StarSchema& schema) : schema_(schema) {}

  // Parallelism and batch size of Build's shared scan; Refresh follows only
  // the batch size. With the default policy (no pool, parallelism 1) builds
  // run on the calling thread; an engaged policy runs the scan
  // morsel-parallel. Either way the pass driver emits bit-identical tables
  // and charges identical I/O.
  void set_parallel_policy(const ParallelPolicy& policy) { policy_ = policy; }

  // Compressed layout for emitted tables: Emit packs the finished table
  // BEFORE charging its write I/O, so a view build's WritePages reflect the
  // same compressed geometry its later scans will be charged with. Catalog
  // registration re-normalizes anyway; this flag only keeps the build-time
  // write charge consistent with the engine's layout.
  void set_compressed_pages(bool compressed) { compressed_pages_ = compressed; }

  // Aggregation memory budget for builds (null or unbounded = the legacy
  // in-memory path, byte-for-byte). A bounded budget is split evenly across
  // the targets of one build pass; each target stages its rows in a
  // SpillStage (exec/spill.h) that spills sorted runs past its share and
  // replays them before Emit. The emitted tables are bit-identical to the
  // unbudgeted build because Emit orders cells by key, and the replay
  // folds each cell in arrival order. After a failed spill write a target
  // keeps staging in memory and spills nothing more; its replay is still in
  // arrival order (builds have no per-query status channel to surface
  // kResourceExhausted through). A failed replay fails the build (see
  // Build). Refresh takes no grant: its working state
  // is O(delta) beside the old and new tables. The pointer must outlive the
  // builder's use.
  void set_memory_budget(const MemoryBudget* budget,
                         const SpillConfig& spill) {
    budget_ = budget;
    spill_ = spill;
  }

  // Builds `targets` in ONE shared scan of `source` — the paper's
  // base-table sharing applied to cube construction: each scanned row feeds
  // every target's aggregation. The source must be able to answer every
  // target (checked). Charges one scan plus every table's write to `disk`.
  // Returns the tables in target order, each named by its spec string.
  //
  // The scan is one pass of the pass driver (exec/operators/pass_driver.h):
  // its chains pack each row's key for every target, one output slot per
  // target, and the calling thread folds the slots target by target in
  // row order, after every batch (serial) or every morsel (parallel), so
  // output tables and charged I/O are bit-identical at any thread count.
  // A budgeted target whose spill replay fails (an injected "spill.read"
  // fault, a short read, a CRC mismatch) fails the whole build with that
  // status: nothing is emitted or charged past the scan, and every
  // target's scratch file is removed.
  Result<std::vector<std::unique_ptr<Table>>> Build(
      const MaterializedView& source,
      const std::vector<GroupBySpec>& targets, DiskModel& disk,
      bool clustered = false) const;

  // Incremental view maintenance: returns a fresh table for `view` that
  // folds the rows of `delta` (a view at the SAME or finer granularity,
  // typically newly appended base facts) into the view's current cells.
  // SUM views are self-maintainable, so this reads only the old view and
  // the delta — never the full base. Layout follows view.clustered().
  //
  // The delta is mapped to the view's packed keys, its distinct cells are
  // sorted into Emit order, and they are merged into the old rows in one
  // pass: a cell the delta touches becomes 0.0 + its old value plus each
  // delta row in arrival order, a new cell is inserted at its sorted
  // position, and untouched rows keep 0.0 + their value. Key columns are
  // spliced (KeyColumn::Splice): untouched runs move as packed words, and
  // only a new key outside a column's packed frame repacks it. The merge
  // relies on the old rows being in Emit order (as every build and refresh
  // writes them) for the result to equal re-aggregating (view + delta) bit
  // for bit; rows out of order still lose nothing. Working state is
  // O(delta). Charges one scan of the view, one of the delta and the new
  // table's write. The returned insertion points let
  // MaterializedView::SpliceRows carry the view's statistics and indexes
  // over.
  RefreshedTable Refresh(const MaterializedView& view,
                         const MaterializedView& delta,
                         DiskModel& disk) const;

 private:
  class MultiAggregator;
  struct TargetState;

  // One target's aggregation state over one source view.
  TargetState MakeTargetState(const MaterializedView& source,
                              const GroupBySpec& target) const;

  // Attaches this builder's budget (split across `consumers` targets) to a
  // target's state. No-op when the budget is null, unbounded, or denied (a
  // denied grant degrades that target to the in-memory path).
  void GrantBudget(TargetState& state, uint64_t consumers) const;

  // Lands the pass's aggregation memory high-water and spill counters on
  // the executed Aggregate node.
  static void RecordBuildMem(const std::vector<TargetState>& states,
                             NodeExec& agg);

  // Emits the contents of a finished aggregator as a table carrying every
  // measure of `source_table`, named by the target's spec string.
  std::unique_ptr<Table> Emit(const MultiAggregator& agg,
                              const GroupBySpec& target,
                              const Table& source_table, DiskModel& disk,
                              bool clustered) const;

  // Refresh's merge: `delta_keys[r]` is delta row r's key packed by
  // `packer` (built for view.spec()). Counts the new cells and repacked key
  // columns on `refresh_span`.
  RefreshedTable MergeDelta(const MaterializedView& view,
                            const KeyPacker& packer, const Table& delta,
                            const std::vector<uint64_t>& delta_keys,
                            DiskModel& disk,
                            obs::ScopedSpan& refresh_span) const;

  // Installs finished key and measure columns (rows in Emit order) as the
  // table for `target`, named like `source_table`'s measures, normalizes
  // the key layout to compressed_pages_ and charges its write.
  std::unique_ptr<Table> WriteTable(const GroupBySpec& target,
                                    const Table& source_table,
                                    const std::string& name,
                                    std::vector<KeyColumn> keys,
                                    std::vector<std::vector<double>> sums,
                                    DiskModel& disk) const;

  const StarSchema& schema_;
  ParallelPolicy policy_;
  bool compressed_pages_ = false;
  const MemoryBudget* budget_ = nullptr;
  SpillConfig spill_;
};

}  // namespace starshare

#endif  // STARSHARE_CUBE_VIEW_BUILDER_H_
