// Hash-based aggregation (the final operator of every star-join plan,
// paper Fig. 1). Accumulates packed group keys -> running aggregate and
// emits a canonical QueryResult.

#ifndef STARSHARE_EXEC_HASH_AGGREGATOR_H_
#define STARSHARE_EXEC_HASH_AGGREGATOR_H_

#include <cstdint>

#include "exec/flat_hash.h"
#include "exec/key_packer.h"
#include "query/query.h"
#include "query/result.h"

namespace starshare {

class HashAggregator {
 public:
  HashAggregator(const StarSchema& schema, const GroupBySpec& target,
                 AggOp op, size_t expected_groups = 64);

  const KeyPacker& packer() const { return packer_; }

  // Adds one input tuple to group `packed_key`.
  void Add(uint64_t packed_key, double value) {
    Accum& a = groups_.FindOrInsert(packed_key);
    switch (op_) {
      case AggOp::kSum:
      case AggOp::kAvg:
        a.agg += value;
        break;
      case AggOp::kCount:
        break;  // count tracked below
      case AggOp::kMin:
        a.agg = (a.count == 0 || value < a.agg) ? value : a.agg;
        break;
      case AggOp::kMax:
        a.agg = (a.count == 0 || value > a.agg) ? value : a.agg;
        break;
    }
    ++a.count;
  }

  // Batch form of Add: equivalent to Add(keys[i], values[i]) for i in
  // [0, n) in order (so the fold is bit-identical), but with the AggOp
  // dispatch hoisted out of the inner loop via template specialization.
  void AddBatch(const uint64_t* keys, const double* values, size_t n) {
    switch (op_) {
      case AggOp::kSum:
      case AggOp::kAvg:
        AddBatchImpl<AggOp::kSum>(keys, values, n);
        break;
      case AggOp::kCount:
        AddBatchImpl<AggOp::kCount>(keys, values, n);
        break;
      case AggOp::kMin:
        AddBatchImpl<AggOp::kMin>(keys, values, n);
        break;
      case AggOp::kMax:
        AddBatchImpl<AggOp::kMax>(keys, values, n);
        break;
    }
  }

  size_t num_groups() const { return groups_.size(); }

  // Resident bytes of the group table (per-node memory accounting).
  uint64_t MemoryBytes() const { return groups_.MemoryBytes(); }

  // Finalizes into a canonically sorted QueryResult.
  QueryResult Finish() const;

 private:
  struct Accum {
    double agg = 0;
    uint64_t count = 0;
  };

  template <AggOp kOp>
  void AddBatchImpl(const uint64_t* keys, const double* values, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      Accum& a = groups_.FindOrInsert(keys[i]);
      if constexpr (kOp == AggOp::kSum) {  // also kAvg: same accumulation
        a.agg += values[i];
      } else if constexpr (kOp == AggOp::kMin) {
        a.agg = (a.count == 0 || values[i] < a.agg) ? values[i] : a.agg;
      } else if constexpr (kOp == AggOp::kMax) {
        a.agg = (a.count == 0 || values[i] > a.agg) ? values[i] : a.agg;
      }
      ++a.count;
    }
  }

  GroupBySpec target_;
  AggOp op_;
  KeyPacker packer_;
  FlatHashMap<Accum> groups_;
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_HASH_AGGREGATOR_H_
