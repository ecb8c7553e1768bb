#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace starshare {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNsToMs = 1e-6;
}  // namespace

double CostModel::SharedScanNs(double rows, double probes,
                               double build_entries) const {
  return rows * (cpu_.tuple_ns + probes * cpu_.probe_ns) +
         build_entries * cpu_.build_entry_ns;
}

double CostModel::HashMemberNs(double rows, double match) const {
  return rows * cpu_.check_ns + match * cpu_.agg_ns;
}

double CostModel::IndexMemberNs(double check_rows, double cand,
                                double residual, double match,
                                double retained) const {
  return check_rows * cpu_.check_ns + cand * residual * cpu_.probe_ns +
         match * (retained * cpu_.probe_ns + cpu_.agg_ns);
}

double CostModel::IndexJoinNs(double cand, double residual, double match,
                              double retained) const {
  return cand * (residual * cpu_.probe_ns + cpu_.check_ns) +
         match * (retained * cpu_.probe_ns + cpu_.agg_ns);
}

double CostModel::CheckNs(double rows) const { return rows * cpu_.check_ns; }

double CostModel::RidNs(double rows) const { return rows * cpu_.rid_ns; }

double CostModel::BitmapWordsNs(double words) const {
  return words * cpu_.bitmap_word_ns;
}

double CostModel::RollupNs(double rows, double lanes) const {
  return rows * (cpu_.tuple_ns + lanes * cpu_.probe_ns + cpu_.agg_ns);
}

double YaoDistinctPages(uint64_t pages, double rows) {
  if (pages == 0 || rows <= 0) return 0;
  if (pages == 1) return 1;
  const double p = 1.0 / static_cast<double>(pages);
  // pages * (1 - (1 - 1/pages)^rows), computed stably.
  return static_cast<double>(pages) *
         (1.0 - std::exp(rows * std::log1p(-p)));
}

double CostModel::DimSelectivity(const DimPredicate& pred,
                                 const MaterializedView& view) const {
  if (view.has_stats() && view.KeyColForDim(pred.dim) != SIZE_MAX) {
    return view.SelectivityOf(schema_.dim(pred.dim), pred.dim, pred.level,
                              pred.members);
  }
  return pred.Selectivity(schema_.dim(pred.dim));
}

double CostModel::MatchRows(const DimensionalQuery& query,
                            const MaterializedView& view) const {
  double sel = 1.0;
  for (const auto& pred : query.predicate().conjuncts()) {
    sel *= DimSelectivity(pred, view);
  }
  return static_cast<double>(view.table().num_rows()) * sel;
}

double CostModel::ScanIoMs(const MaterializedView& view) const {
  return static_cast<double>(view.table().num_pages()) * disk_.seq_page_ms;
}

std::vector<size_t> CostModel::RestrictedDims(
    const DimensionalQuery& query, const MaterializedView& view) const {
  std::vector<size_t> dims;
  for (const auto& pred : query.predicate().conjuncts()) {
    if (view.KeyColForDim(pred.dim) != SIZE_MAX) dims.push_back(pred.dim);
  }
  return dims;
}

bool CostModel::IndexAvailable(const DimensionalQuery& query,
                               const MaterializedView& view) const {
  // The §3.2 method applies as soon as one restricted dimension has an
  // index; predicates on unindexed dimensions become residual filters on
  // the retrieved tuples.
  for (size_t d : RestrictedDims(query, view)) {
    if (view.IndexOn(d) != nullptr) return true;
  }
  return false;
}

double CostModel::CandidateSelectivity(const DimensionalQuery& query,
                                       const MaterializedView& view) const {
  double sel = 1.0;
  for (const auto& pred : query.predicate().conjuncts()) {
    if (view.KeyColForDim(pred.dim) == SIZE_MAX) continue;
    if (view.IndexOn(pred.dim) == nullptr) continue;  // residual
    sel *= DimSelectivity(pred, view);
  }
  return sel;
}

size_t CostModel::ResidualDims(const DimensionalQuery& query,
                               const MaterializedView& view) const {
  size_t n = 0;
  for (size_t d : RestrictedDims(query, view)) {
    if (view.IndexOn(d) == nullptr) ++n;
  }
  return n;
}

double CostModel::IndexLookupIoMs(const DimensionalQuery& query,
                                  const MaterializedView& view) const {
  const double rows = static_cast<double>(view.table().num_rows());
  const uint64_t bitmap_bytes = (view.table().num_rows() + 7) / 8;
  double pages = 0;
  for (const auto& pred : query.predicate().conjuncts()) {
    const size_t d = pred.dim;
    if (view.KeyColForDim(d) == SIZE_MAX) continue;
    if (view.IndexOn(d) == nullptr) continue;  // residual predicate
    const Hierarchy& h = schema_.dim(d);
    // One segment per member at the level the index serves: the predicate's
    // own level when a per-level index exists, else the stored level with
    // the member set expanded to descendants.
    int level = pred.level;
    double members = static_cast<double>(pred.members.size());
    if (view.IndexOn(d, pred.level) == nullptr) {
      level = view.StoredLevel(d);
      members = members * static_cast<double>(h.cardinality(level)) /
                static_cast<double>(h.cardinality(pred.level));
    }
    const double avg_list_rows =
        rows / static_cast<double>(h.cardinality(level));
    const uint64_t segment_bytes =
        8 + std::min<uint64_t>(static_cast<uint64_t>(4 * avg_list_rows),
                               bitmap_bytes);
    pages += members * static_cast<double>(PagesForBytes(segment_bytes));
  }
  return pages * disk_.index_page_ms;
}

double CostModel::IndexBitmapCpuMs(const DimensionalQuery& query,
                                   const MaterializedView& view) const {
  const double rows = static_cast<double>(view.table().num_rows());
  const double words = rows / 64.0;
  double ns = 0;
  size_t restricted = 0;
  for (const auto& pred : query.predicate().conjuncts()) {
    if (view.KeyColForDim(pred.dim) == SIZE_MAX) continue;
    if (view.IndexOn(pred.dim) == nullptr) continue;  // residual predicate
    ++restricted;
    ns += RidNs(rows * DimSelectivity(pred, view));
  }
  ns += BitmapWordsNs(static_cast<double>(restricted) * words);
  return ns * kNsToMs;
}

double CostModel::ProbeDistinctPages(const DimensionalQuery& query,
                                     const MaterializedView& view) const {
  const double rows = static_cast<double>(view.table().num_rows());
  const uint64_t pages = view.table().num_pages();
  // Probes retrieve the *candidates* selected by the indexed predicates;
  // residual predicates filter afterwards and do not shrink the probe.
  const double match = rows * CandidateSelectivity(query, view);
  if (rows == 0 || match <= 0) return 0;
  if (!view.clustered()) {
    // Matches spread uniformly: Yao's formula.
    return YaoDistinctPages(pages, match);
  }

  // Clustered table: sorted lexicographically by its key columns, so the
  // matches of a conjunctive member predicate form `runs` contiguous runs —
  // one per selected combination of the dimensions *before* the last
  // restricted column — each holding a few blocks of matching tuples.
  const auto cols = view.spec().RetainedDims(schema_);
  const auto indexed_pred = [&](size_t d) -> const DimPredicate* {
    if (view.IndexOn(d) == nullptr) return nullptr;
    return query.predicate().ForDim(d);
  };
  int last = -1;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (indexed_pred(cols[i]) != nullptr) last = static_cast<int>(i);
  }
  if (last < 0) return static_cast<double>(pages);  // unrestricted

  double runs = 1;
  double run_rows = rows;
  for (int i = 0; i < last; ++i) {
    const size_t d = cols[static_cast<size_t>(i)];
    const Hierarchy& h = schema_.dim(d);
    const double card = h.cardinality(view.StoredLevel(d));
    const DimPredicate* p = indexed_pred(d);
    const double cnt =
        p == nullptr ? card
                     : static_cast<double>(p->members.size()) * card /
                           static_cast<double>(h.cardinality(p->level));
    runs *= cnt;
    run_rows /= card;
  }

  // Within each run, rows are sorted by the last restricted dimension; its
  // predicate selects one contiguous id range per predicate member.
  const DimPredicate* p = indexed_pred(cols[static_cast<size_t>(last)]);
  const double rpp = static_cast<double>(view.table().rows_per_page());
  const double run_pages = std::max(1.0, run_rows / rpp);
  const double blocks = static_cast<double>(p->members.size());

  // Sparse selections leave most runs empty: expected runs actually hit is
  // Yao over the runs themselves.
  const double nonempty_runs = YaoDistinctPages(
      static_cast<uint64_t>(std::ceil(std::max(1.0, runs))), match);
  if (nonempty_runs <= 0) return 0;
  const double matched_per_hit_run = match / nonempty_runs;
  const double per_run =
      std::max(1.0, std::min(YaoDistinctPages(static_cast<uint64_t>(
                                                  std::ceil(run_pages)),
                                              matched_per_hit_run),
                             blocks + matched_per_hit_run / rpp));
  return std::min(nonempty_runs * per_run, static_cast<double>(pages));
}

double CostModel::ProbeIoMs(const DimensionalQuery& query,
                            const MaterializedView& view) const {
  return ProbeDistinctPages(query, view) * disk_.rand_page_ms;
}

double CostModel::SharedProbeIoMs(
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view) const {
  // Upper-bounded by the sum of per-query probes (the union can only be
  // smaller) and, for unclustered tables, refined by Yao on the union
  // cardinality.
  double sum_pages = 0;
  for (const auto* q : queries) sum_pages += ProbeDistinctPages(*q, view);
  double pages = std::min(sum_pages,
                          static_cast<double>(view.table().num_pages()));
  if (!view.clustered()) {
    double miss_all = 1.0;
    for (const auto* q : queries) {
      miss_all *= 1.0 - CandidateSelectivity(*q, view);
    }
    const double union_rows =
        static_cast<double>(view.table().num_rows()) * (1.0 - miss_all);
    pages = std::min(
        pages, YaoDistinctPages(view.table().num_pages(), union_rows));
  }
  return pages * disk_.rand_page_ms;
}

double CostModel::SharedScanCpuMs(
    const std::vector<const DimensionalQuery*>& hash_members,
    const MaterializedView& view) const {
  const double rows = static_cast<double>(view.table().num_rows());
  std::vector<bool> in_union(schema_.num_dims(), false);
  for (const auto* q : hash_members) {
    for (size_t d : RestrictedDims(*q, view)) in_union[d] = true;
  }
  double probes = 0;
  double build_entries = 0;
  for (size_t d = 0; d < schema_.num_dims(); ++d) {
    if (!in_union[d]) continue;
    probes += 1;
    build_entries += schema_.dim(d).cardinality(view.StoredLevel(d));
  }
  return SharedScanNs(rows, probes, build_entries) * kNsToMs;
}

double CostModel::HashJoinCostMs(const DimensionalQuery& query,
                                 const MaterializedView& view) const {
  const double rows = static_cast<double>(view.table().num_rows());
  return ScanIoMs(view) + SharedScanCpuMs({&query}, view) +
         HashMemberNs(rows, MatchRows(query, view)) * kNsToMs;
}

double CostModel::IndexJoinCostMs(const DimensionalQuery& query,
                                  const MaterializedView& view) const {
  if (!IndexAvailable(query, view)) return kInf;
  const double cand = static_cast<double>(view.table().num_rows()) *
                      CandidateSelectivity(query, view);
  const double match = MatchRows(query, view);
  const double retained =
      static_cast<double>(query.target().RetainedDims(schema_).size());
  const double residual =
      static_cast<double>(ResidualDims(query, view));
  return IndexLookupIoMs(query, view) + IndexBitmapCpuMs(query, view) +
         ProbeIoMs(query, view) +
         IndexJoinNs(cand, residual, match, retained) * kNsToMs;
}

std::pair<JoinMethod, double> CostModel::BestSingleCost(
    const DimensionalQuery& query, const MaterializedView& view) const {
  const double hash = HashJoinCostMs(query, view);
  const double index = IndexJoinCostMs(query, view);
  if (index < hash) return {JoinMethod::kIndexProbe, index};
  return {JoinMethod::kHashScan, hash};
}

std::vector<const DimensionalQuery*> CostModel::Queries(
    const ClassPlan& cls) {
  std::vector<const DimensionalQuery*> out;
  out.reserve(cls.members.size());
  for (const auto& m : cls.members) out.push_back(m.query);
  return out;
}

void CostModel::ComputeClassEstimates(ClassPlan& cls) const {
  SS_CHECK(cls.base != nullptr);
  const MaterializedView& v = *cls.base;
  const double rows = static_cast<double>(v.table().num_rows());

  if (cls.HasHashMember() || !cls.HasIndexMember()) {
    // Scan-based class (§3.1, or §3.3 when index members ride the scan).
    std::vector<const DimensionalQuery*> hash_queries;
    for (const auto& m : cls.members) {
      if (m.method == JoinMethod::kHashScan) hash_queries.push_back(m.query);
    }
    cls.est_shared_io_ms = ScanIoMs(v);
    cls.est_shared_cpu_ms = SharedScanCpuMs(hash_queries, v);
    for (auto& m : cls.members) {
      const double match = MatchRows(*m.query, v);
      const double retained = static_cast<double>(
          m.query->target().RetainedDims(schema_).size());
      if (m.method == JoinMethod::kHashScan) {
        m.est_nonshared_cpu_ms = HashMemberNs(rows, match) * kNsToMs;
        m.est_nonshared_io_ms = 0;
      } else {
        // §3.3: probe converted to riding the scan behind a bitmap filter;
        // residual predicates checked on candidate rows only.
        const double cand = rows * CandidateSelectivity(*m.query, v);
        const double residual =
            static_cast<double>(ResidualDims(*m.query, v));
        m.est_nonshared_cpu_ms =
            IndexBitmapCpuMs(*m.query, v) +
            IndexMemberNs(rows, cand, residual, match, retained) * kNsToMs;
        m.est_nonshared_io_ms = IndexLookupIoMs(*m.query, v);
      }
    }
  } else {
    // All-index class (§3.2): one probe pass over the OR of result bitmaps.
    const auto queries = Queries(cls);
    cls.est_shared_io_ms = SharedProbeIoMs(queries, v);
    cls.est_shared_cpu_ms = 0;
    double miss_all = 1.0;
    for (const auto* q : queries) miss_all *= 1.0 - q->Selectivity(schema_);
    const double union_rows = rows * (1.0 - miss_all);
    for (auto& m : cls.members) {
      const double match = MatchRows(*m.query, v);
      const double cand = rows * CandidateSelectivity(*m.query, v);
      const double residual =
          static_cast<double>(ResidualDims(*m.query, v));
      const double retained = static_cast<double>(
          m.query->target().RetainedDims(schema_).size());
      m.est_nonshared_cpu_ms =
          IndexBitmapCpuMs(*m.query, v) +
          IndexMemberNs(union_rows, cand, residual, match, retained) *
              kNsToMs;
      m.est_nonshared_io_ms = IndexLookupIoMs(*m.query, v);
    }
  }
}

ClassPlan CostModel::MakeClassPlan(
    MaterializedView* base,
    std::vector<const DimensionalQuery*> queries) const {
  SS_CHECK(base != nullptr);
  SS_CHECK(!queries.empty());
  const MaterializedView& v = *base;
  const double rows = static_cast<double>(v.table().num_rows());

  // Scan-based candidate: each member independently picks the cheaper of
  // (hash on the shared scan) vs (index lookup riding the shared scan).
  ClassPlan scan_plan;
  scan_plan.base = base;
  for (const auto* q : queries) {
    const double match = MatchRows(*q, v);
    const double retained =
        static_cast<double>(q->target().RetainedDims(schema_).size());
    const double hash_incr = HashMemberNs(rows, match) * kNsToMs;
    double index_incr = kInf;
    if (IndexAvailable(*q, v)) {
      const double cand = rows * CandidateSelectivity(*q, v);
      const double residual = static_cast<double>(ResidualDims(*q, v));
      index_incr =
          IndexLookupIoMs(*q, v) + IndexBitmapCpuMs(*q, v) +
          IndexMemberNs(rows, cand, residual, match, retained) * kNsToMs;
    }
    LocalPlan lp;
    lp.query = q;
    lp.method = hash_incr <= index_incr ? JoinMethod::kHashScan
                                        : JoinMethod::kIndexProbe;
    scan_plan.members.push_back(lp);
  }
  ComputeClassEstimates(scan_plan);

  // All-index candidate, when every member can use its indexes.
  bool all_indexable = true;
  for (const auto* q : queries) {
    if (!IndexAvailable(*q, v)) {
      all_indexable = false;
      break;
    }
  }
  if (all_indexable) {
    ClassPlan index_plan;
    index_plan.base = base;
    for (const auto* q : queries) {
      LocalPlan lp;
      lp.query = q;
      lp.method = JoinMethod::kIndexProbe;
      index_plan.members.push_back(lp);
    }
    ComputeClassEstimates(index_plan);
    if (index_plan.EstMs() < scan_plan.EstMs()) return index_plan;
  }
  return scan_plan;
}

double CostModel::ClassCostMs(
    MaterializedView* base,
    std::vector<const DimensionalQuery*> queries) const {
  return MakeClassPlan(base, std::move(queries)).EstMs();
}

double CostModel::CostOfAddMs(const ClassPlan& cls,
                              const DimensionalQuery& query) const {
  std::vector<const DimensionalQuery*> queries = Queries(cls);
  const double before = ClassCostMs(cls.base, queries);
  queries.push_back(&query);
  const double after = ClassCostMs(cls.base, std::move(queries));
  return after - before;
}

void CostModel::AnnotatePlan(GlobalPlan& plan) const {
  for (auto& cls : plan.classes) ComputeClassEstimates(cls);
}

double CostModel::RollupCpuMs(double parent_rows,
                              const DimensionalQuery& child) const {
  const double lanes =
      static_cast<double>(child.target().RetainedDims(schema_).size());
  return RollupNs(parent_rows, lanes) * 1e-6;
}

}  // namespace starshare
