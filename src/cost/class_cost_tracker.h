// Incremental class-cost accounting — the cost-delta API behind the
// DAG-greedy optimizer's benefit recomputation (opt/dag_greedy.h).
//
// CostModel::ClassCostMs re-prices a whole class from scratch: O(members)
// per call, which makes a greedy loop that repeatedly asks "what if query q
// moved to class S?" quadratic in the member count. A ClassCostTracker
// holds one class (one base view plus a member set) and maintains the
// aggregate quantities the §5.1 class cost is built from, so adding or
// removing one member — or just *peeking* at the delta without mutating —
// costs O(dimensions), independent of how many members the class has:
//
//   * scan form: the shared scan I/O is constant; the shared CPU depends
//     only on the union of restricted dimensions over hash members (kept as
//     per-dimension counts); each member's non-shared increment depends on
//     (query, view) alone and is cached at first sight;
//   * all-index form: the shared probe I/O needs Σ per-query probe pages
//     and the product Π(1 - candidate selectivity); the per-member CPU
//     needs Π(1 - selectivity) for the union row count. Products are
//     maintained with a zero-factor count so removal never divides by zero.
//
// The tracked total mirrors CostModel::MakeClassPlan exactly in structure
// (the same CostModel CPU terms, same scan-vs-all-index choice, same
// per-member method choice); floating-point accumulation order differs,
// so totals agree to rounding error, not bit-for-bit — callers doing exact
// comparisons should re-price final plans with CostModel::MakeClassPlan
// (as opt/dag_greedy does) and use the tracker only to steer the search.

#ifndef STARSHARE_COST_CLASS_COST_TRACKER_H_
#define STARSHARE_COST_CLASS_COST_TRACKER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"

namespace starshare {

class ClassCostTracker {
 public:
  ClassCostTracker(const StarSchema& schema, const CostModel& cost,
                   MaterializedView* base);

  // Copyable: the greedy loop simulates multi-member consolidations on
  // scratch copies before committing them.
  ClassCostTracker(const ClassCostTracker&) = default;
  ClassCostTracker& operator=(const ClassCostTracker&) = default;

  MaterializedView* base() const { return base_; }
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  // Member queries in insertion order.
  std::vector<const DimensionalQuery*> Members() const;

  // Estimated cost of the tracked class (0 when empty), equal to
  // CostModel::ClassCostMs(base, Members()) up to accumulation rounding.
  double TotalMs() const;

  // Adds / removes `query` and returns the cost delta (new − old total).
  // Remove aborts if `query` is not a member.
  double AddMs(const DimensionalQuery& query);
  double RemoveMs(const DimensionalQuery& query);

  // The delta Add/Remove would return, without mutating the tracker.
  double PeekAddMs(const DimensionalQuery& query) const;
  double PeekRemoveMs(const DimensionalQuery& query) const;

 private:
  // Per-(query, base) quantities, computed once when the member is first
  // seen; everything the class total needs from this member alone.
  struct MemberCost {
    const DimensionalQuery* query = nullptr;
    double scan_incr = 0;        // min(hash, index-ride) increment
    bool scan_uses_hash = true;  // which of the two the scan form picks
    uint64_t restricted_mask = 0;  // restricted dims present on the view
    bool indexable = false;        // §3.2 applicable for this member
    double probe_pages = 0;        // expected distinct pages, probing alone
    double cand_miss = 1;          // 1 − candidate selectivity
    double sel_miss = 1;           // 1 − full predicate selectivity
    double idx_const = 0;  // index-form member cost minus the union term
  };

  // The aggregates the two class forms are computed from. Kept in one
  // struct so Peek* can evaluate a hypothetical state without mutation.
  struct Aggregates {
    size_t n = 0;
    size_t n_hash = 0;  // members the scan form joins by hashing
    double sum_scan_incr = 0;
    std::vector<uint32_t> hash_dim_count;  // per-dim hash-member count
    size_t n_unindexable = 0;
    double sum_probe_pages = 0;
    double sum_idx_const = 0;
    double cand_miss_prod = 1;
    size_t cand_miss_zeros = 0;
    double sel_miss_prod = 1;
    size_t sel_miss_zeros = 0;
  };

  MemberCost ComputeMemberCost(const DimensionalQuery& query) const;
  // ComputeMemberCost through the shared memo: a member's cost on a fixed
  // base never changes, so once any copy of this tracker has priced a
  // query, every copy reuses the result (the greedy loop peeks at the same
  // (query, view) pairs round after round).
  const MemberCost& Memoized(const DimensionalQuery& query) const;
  const MemberCost* Find(const DimensionalQuery& query) const;
  static void Apply(Aggregates& agg, const MemberCost& m, int sign);
  double TotalOf(const Aggregates& agg) const;

  const StarSchema* schema_;
  const CostModel* cost_;
  MaterializedView* base_;
  std::vector<MemberCost> members_;
  Aggregates agg_;
  // Append-only price cache shared between a tracker and its copies (the
  // search's scratch clones), keyed by query identity.
  std::shared_ptr<std::unordered_map<const DimensionalQuery*, MemberCost>>
      memo_;
};

}  // namespace starshare

#endif  // STARSHARE_COST_CLASS_COST_TRACKER_H_
