// Aggregate sink (physical node kind kAggregate): folds each class
// member's match stream into its BoundQuery aggregation, slot order within
// a batch, batches in input order. Only ever invoked on the driving thread
// — the morsel driver buffers worker matches and consumes them in morsel
// order, so every aggregator folds in the exact serial sequence.
//
// Budget mode (exec/memory_budget.h): a slot given a bounded grant hands
// its raw (key, value) records to a SpillStage (exec/spill.h) instead of
// folding them immediately; the stage spills stable-sorted runs past the
// grant, and FinishSlot() replays every record (per key, in arrival order)
// through the very same HashAggregator fold, so a budgeted execution's
// results are bit-identical to the unbudgeted ones at any thread count,
// batch size and budget. Spill I/O is real scratch-file I/O, never charged
// to the DiskModel: modeled IoStats are unchanged by budgeting, and spill
// volume is reported separately (spill_runs / spill_bytes).
//
// A slot whose spill write fails is sticky-failed (kResourceExhausted)
// without touching its siblings; the failure surfaces from FinishSlot so
// the engine's per-member fallback ladder can degrade exactly that member.

#ifndef STARSHARE_EXEC_OPERATORS_AGGREGATE_SINK_H_
#define STARSHARE_EXEC_OPERATORS_AGGREGATE_SINK_H_

#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/mem_stats.h"
#include "exec/bound_query.h"
#include "exec/memory_budget.h"
#include "exec/operators/operator.h"
#include "exec/spill.h"

namespace starshare {

class AggregateSink {
 public:
  explicit AggregateSink(std::vector<BoundQuery>& bound)
      : bound_(bound), slots_(bound.size()) {}

  // Puts slot `slot` under a bounded grant; spill runs go to a file named
  // for `query_id` under config's scratch dir. Unbounded grants are a no-op
  // (the slot keeps the direct fold path).
  void SetGrant(size_t slot, const MemoryGrant& grant,
                const SpillConfig& config, int query_id);

  void Consume(const std::vector<QueryMatchBatch>& slots);

  // Finalizes one slot: replays a budgeted slot's records and finishes the
  // bound aggregation. Returns the slot's sticky spill failure instead, if
  // it has one.
  Result<QueryResult> FinishSlot(size_t slot);

  // Accounting across every Consume so far: the slots' staged high-waters
  // summed, and the aggregation tables (both land in MemStats::hash_bytes).
  uint64_t staged_peak_bytes() const;
  uint64_t agg_table_bytes() const;

  // Totals across slots, for the aggregate node's spill counters.
  uint64_t spill_runs() const;
  uint64_t spill_bytes() const;

 private:
  struct SlotState {
    std::unique_ptr<SpillStage> stage;  // null: unbounded, direct fold
    Status status;                      // sticky first spill failure
  };

  // Sums `counter` over the budgeted slots.
  uint64_t SumOverStages(uint64_t (SpillStage::*counter)() const) const;

  std::vector<BoundQuery>& bound_;
  std::vector<SlotState> slots_;
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_AGGREGATE_SINK_H_
