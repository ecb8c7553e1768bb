#include "exec/operators/aggregate_sink.h"

namespace starshare {

void AggregateSink::SetGrant(size_t slot, const MemoryGrant& grant,
                             const SpillConfig& config, int query_id) {
  SS_DCHECK(slot < slots_.size());
  if (grant.unbounded) return;
  slots_[slot].stage = std::make_unique<SpillStage>(grant, config, query_id,
                                                    /*doubles_per_record=*/1);
}

void AggregateSink::Consume(const std::vector<QueryMatchBatch>& slots) {
  SS_DCHECK(slots.size() == bound_.size());
  for (size_t slot = 0; slot < bound_.size(); ++slot) {
    SlotState& s = slots_[slot];
    if (s.stage == nullptr) {
      bound_[slot].AccumulateRawBatch(slots[slot].keys.data(),
                                      slots[slot].values.data(),
                                      slots[slot].size());
      continue;
    }
    if (!s.status.ok()) continue;  // sticky-failed: drop the stream
    s.status = s.stage->Append(slots[slot].keys.data(),
                               slots[slot].values.data(), slots[slot].size());
  }
}

Result<QueryResult> AggregateSink::FinishSlot(size_t slot) {
  SS_DCHECK(slot < slots_.size());
  SlotState& s = slots_[slot];
  if (!s.status.ok()) return s.status;
  if (s.stage != nullptr) {
    BoundQuery& member = bound_[slot];
    SS_RETURN_IF_ERROR(
        s.stage->Replay([&member](uint64_t key, const double* values) {
          member.AccumulateRaw(key, values[0]);
        }));
  }
  return bound_[slot].Finish();
}

uint64_t AggregateSink::agg_table_bytes() const {
  uint64_t total = 0;
  for (const BoundQuery& member : bound_) total += member.AggMemoryBytes();
  return total;
}

uint64_t AggregateSink::SumOverStages(
    uint64_t (SpillStage::*counter)() const) const {
  uint64_t total = 0;
  for (const SlotState& s : slots_) {
    if (s.stage != nullptr) total += (*s.stage.*counter)();
  }
  return total;
}

uint64_t AggregateSink::staged_peak_bytes() const {
  return SumOverStages(&SpillStage::peak_staged_bytes);
}

uint64_t AggregateSink::spill_runs() const {
  return SumOverStages(&SpillStage::spill_runs);
}

uint64_t AggregateSink::spill_bytes() const {
  return SumOverStages(&SpillStage::spill_bytes);
}

}  // namespace starshare
