#include "cost/class_cost_tracker.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"

namespace starshare {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNsToMs = 1e-6;

// Multiplies `factor` into a (product, zero-count) pair. Zero factors are
// counted instead of multiplied so the inverse (division) stays exact-ish
// and never divides by zero.
void MulInto(double& prod, size_t& zeros, double factor, int sign) {
  if (factor == 0) {
    if (sign > 0) {
      ++zeros;
    } else {
      SS_CHECK(zeros > 0);
      --zeros;
    }
    return;
  }
  if (sign > 0) {
    prod *= factor;
  } else {
    prod /= factor;
  }
}

double ProductOf(double prod, size_t zeros) { return zeros > 0 ? 0 : prod; }
}  // namespace

ClassCostTracker::ClassCostTracker(const StarSchema& schema,
                                   const CostModel& cost,
                                   MaterializedView* base)
    : schema_(&schema),
      cost_(&cost),
      base_(base),
      memo_(std::make_shared<
            std::unordered_map<const DimensionalQuery*, MemberCost>>()) {
  SS_CHECK(base_ != nullptr);
  agg_.hash_dim_count.assign(schema.num_dims(), 0);
}

std::vector<const DimensionalQuery*> ClassCostTracker::Members() const {
  std::vector<const DimensionalQuery*> out;
  out.reserve(members_.size());
  for (const auto& m : members_) out.push_back(m.query);
  return out;
}

ClassCostTracker::MemberCost ClassCostTracker::ComputeMemberCost(
    const DimensionalQuery& query) const {
  const MaterializedView& v = *base_;
  const double rows = static_cast<double>(v.table().num_rows());
  const double match = cost_->MatchRows(query, v);
  const double retained =
      static_cast<double>(query.target().RetainedDims(*schema_).size());

  MemberCost m;
  m.query = &query;
  for (const auto& pred : query.predicate().conjuncts()) {
    if (v.KeyColForDim(pred.dim) != SIZE_MAX) {
      m.restricted_mask |= uint64_t{1} << pred.dim;
    }
  }

  // Scan-form increment: the cheaper of hashing on the shared scan and an
  // index lookup riding it (§3.3) — the same two candidate increments
  // CostModel::MakeClassPlan prices per member.
  const double hash_incr = cost_->HashMemberNs(rows, match) * kNsToMs;
  double index_incr = kInf;
  m.indexable = cost_->IndexAvailable(query, v);
  if (m.indexable) {
    const double cand = rows * cost_->CandidateSelectivity(query, v);
    const double residual =
        static_cast<double>(cost_->ResidualDims(query, v));
    index_incr =
        cost_->IndexLookupIoMs(query, v) + cost_->IndexBitmapCpuMs(query, v) +
        cost_->IndexMemberNs(rows, cand, residual, match, retained) * kNsToMs;
  }
  m.scan_uses_hash = hash_incr <= index_incr;
  m.scan_incr = m.scan_uses_hash ? hash_incr : index_incr;

  // All-index form (§3.2) pieces. The member's CPU there is the index
  // member term at union_rows check rows, with union_rows shared
  // class-wide: idx_const is the term at 0 check rows (exact, as
  // 0.0 + x == x), and TotalOf adds the checks.
  if (m.indexable) {
    const double cand_sel = cost_->CandidateSelectivity(query, v);
    const double cand = rows * cand_sel;
    const double residual =
        static_cast<double>(cost_->ResidualDims(query, v));
    m.probe_pages = cost_->ProbeDistinctPages(query, v);
    m.cand_miss = 1.0 - cand_sel;
    m.sel_miss = 1.0 - query.Selectivity(*schema_);
    m.idx_const =
        cost_->IndexLookupIoMs(query, v) + cost_->IndexBitmapCpuMs(query, v) +
        cost_->IndexMemberNs(0.0, cand, residual, match, retained) * kNsToMs;
  }
  return m;
}

const ClassCostTracker::MemberCost& ClassCostTracker::Memoized(
    const DimensionalQuery& query) const {
  auto it = memo_->find(&query);
  if (it == memo_->end()) {
    it = memo_->emplace(&query, ComputeMemberCost(query)).first;
  }
  return it->second;
}

const ClassCostTracker::MemberCost* ClassCostTracker::Find(
    const DimensionalQuery& query) const {
  for (const auto& m : members_) {
    if (m.query == &query) return &m;
  }
  return nullptr;
}

void ClassCostTracker::Apply(Aggregates& agg, const MemberCost& m, int sign) {
  SS_CHECK(sign > 0 || agg.n > 0);
  agg.n += static_cast<size_t>(sign);
  agg.sum_scan_incr += sign * m.scan_incr;
  if (m.scan_uses_hash) {
    agg.n_hash += static_cast<size_t>(sign);
    for (size_t d = 0; d < agg.hash_dim_count.size(); ++d) {
      if (m.restricted_mask & (uint64_t{1} << d)) {
        agg.hash_dim_count[d] += static_cast<uint32_t>(sign);
      }
    }
  }
  if (!m.indexable) {
    agg.n_unindexable += static_cast<size_t>(sign);
    return;
  }
  agg.sum_probe_pages += sign * m.probe_pages;
  agg.sum_idx_const += sign * m.idx_const;
  MulInto(agg.cand_miss_prod, agg.cand_miss_zeros, m.cand_miss, sign);
  MulInto(agg.sel_miss_prod, agg.sel_miss_zeros, m.sel_miss, sign);
}

double ClassCostTracker::TotalOf(const Aggregates& agg) const {
  if (agg.n == 0) return 0;
  const MaterializedView& v = *base_;
  const double rows = static_cast<double>(v.table().num_rows());

  // Scan-based form: shared scan I/O + shared CPU over the union of the
  // hash members' restricted dimensions + per-member increments.
  double scan_total = kInf;
  if (agg.n_hash > 0) {
    double probes = 0;
    double build_entries = 0;
    for (size_t d = 0; d < agg.hash_dim_count.size(); ++d) {
      if (agg.hash_dim_count[d] == 0) continue;
      probes += 1;
      build_entries += schema_->dim(d).cardinality(v.StoredLevel(d));
    }
    scan_total = cost_->ScanIoMs(v) +
                 cost_->SharedScanNs(rows, probes, build_entries) * kNsToMs +
                 agg.sum_scan_incr;
  }

  // All-index form (§3.2): only when every member can probe. When no member
  // picks hash in the scan form, this is also the only form left.
  double index_total = kInf;
  if (agg.n_unindexable == 0) {
    double pages = std::min(agg.sum_probe_pages,
                            static_cast<double>(v.table().num_pages()));
    if (!v.clustered()) {
      const double union_cand_rows =
          rows * (1.0 - ProductOf(agg.cand_miss_prod, agg.cand_miss_zeros));
      pages = std::min(
          pages, YaoDistinctPages(v.table().num_pages(), union_cand_rows));
    }
    const double union_rows =
        rows * (1.0 - ProductOf(agg.sel_miss_prod, agg.sel_miss_zeros));
    index_total =
        pages * cost_->disk().rand_page_ms + agg.sum_idx_const +
        cost_->CheckNs(static_cast<double>(agg.n) * union_rows) * kNsToMs;
  }
  return std::min(scan_total, index_total);
}

double ClassCostTracker::TotalMs() const { return TotalOf(agg_); }

double ClassCostTracker::AddMs(const DimensionalQuery& query) {
  SS_CHECK(Find(query) == nullptr);
  const double before = TotalOf(agg_);
  members_.push_back(Memoized(query));
  Apply(agg_, members_.back(), +1);
  return TotalOf(agg_) - before;
}

double ClassCostTracker::RemoveMs(const DimensionalQuery& query) {
  const MemberCost* m = Find(query);
  SS_CHECK(m != nullptr);
  const double before = TotalOf(agg_);
  Apply(agg_, *m, -1);
  members_.erase(members_.begin() + (m - members_.data()));
  return TotalOf(agg_) - before;
}

double ClassCostTracker::PeekAddMs(const DimensionalQuery& query) const {
  const double before = TotalOf(agg_);
  Aggregates next = agg_;
  Apply(next, Memoized(query), +1);
  return TotalOf(next) - before;
}

double ClassCostTracker::PeekRemoveMs(const DimensionalQuery& query) const {
  const MemberCost* m = Find(query);
  SS_CHECK(m != nullptr);
  const double before = TotalOf(agg_);
  Aggregates next = agg_;
  Apply(next, *m, -1);
  return TotalOf(next) - before;
}

}  // namespace starshare
