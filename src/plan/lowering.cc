#include "plan/lowering.h"

#include <algorithm>

#include "common/macros.h"
#include "exec/operators/star_join_filter.h"

namespace starshare {

LoweredClassNodes LowerSharedClass(PhysicalPlan& plan, size_t parent,
                                   const std::string& detail, size_t n_hash,
                                   size_t n_index, bool probe, int query_id,
                                   const ClassPlan* cls) {
  SS_DCHECK(!probe || n_hash == 0);
  LoweredClassNodes nodes;
  const size_t members = n_hash + n_index;

  double agg_est = -1.0, route_est = -1.0, cpu_est = -1.0, io_est = -1.0;
  if (cls != nullptr) {
    agg_est = cls->EstMs();
    route_est = 0.0;
    for (const LocalPlan& m : cls->members) route_est += m.EstMs();
    cpu_est = cls->est_shared_cpu_ms;
    io_est = cls->est_shared_io_ms;
  }

  nodes.aggregate =
      plan.AddNode(PhysOpKind::kAggregate, detail, query_id, parent);
  plan.node(nodes.aggregate).est_ms = agg_est;
  size_t tail = nodes.aggregate;

  if (members > 1) {
    nodes.route = plan.AddNode(PhysOpKind::kRoute, "", query_id, tail);
    plan.node(nodes.route).est_ms = route_est;
    tail = nodes.route;
  }
  if (n_index > 0) {
    nodes.bitmap_filter =
        plan.AddNode(PhysOpKind::kBitmapFilter, "", query_id, tail);
    if (probe) plan.node(nodes.bitmap_filter).est_ms = cpu_est;
    tail = nodes.bitmap_filter;
  }
  if (!probe) {
    nodes.star_join_filter =
        plan.AddNode(PhysOpKind::kStarJoinFilter, "", query_id, tail);
    plan.node(nodes.star_join_filter).est_ms = cpu_est;
    tail = nodes.star_join_filter;
  }
  nodes.source = plan.AddNode(
      probe ? PhysOpKind::kIndexUnionProbe : PhysOpKind::kScan, detail,
      query_id, tail);
  plan.node(nodes.source).est_ms = io_est;
  return nodes;
}

LoweredClassNodes LowerDerivedClass(PhysicalPlan& plan, size_t parent,
                                    const std::string& detail,
                                    size_t n_members, int query_id,
                                    size_t input, double rollup_cpu_est_ms,
                                    const std::vector<double>* member_est_ms) {
  SS_DCHECK(n_members > 0);
  LoweredClassNodes nodes;
  nodes.aggregate =
      plan.AddNode(PhysOpKind::kAggregate, detail, query_id, parent);
  plan.node(nodes.aggregate).est_ms = rollup_cpu_est_ms;
  size_t tail = nodes.aggregate;
  if (n_members > 1) {
    nodes.route = plan.AddNode(PhysOpKind::kRoute, "", query_id, tail);
    if (member_est_ms != nullptr) {
      double total = 0.0;
      for (const double est : *member_est_ms) total += est;
      plan.node(nodes.route).est_ms = total;
    }
    tail = nodes.route;
  }
  // The star-join filter runs predicate-free over derived rows (the parent
  // already applied every restriction), so it carries no shared dimension
  // tables — but keeping it in the chain preserves the §3.1 shape, the
  // fan-out point, and the per-member EmitRows path unchanged.
  nodes.star_join_filter =
      plan.AddNode(PhysOpKind::kStarJoinFilter, "", query_id, tail);
  plan.node(nodes.star_join_filter).est_ms = rollup_cpu_est_ms;
  nodes.source = plan.AddNode(PhysOpKind::kDerivedScan, detail, query_id,
                              nodes.star_join_filter);
  plan.node(nodes.source).est_ms = 0.0;
  if (input != kNoPhysNode) plan.AddInput(nodes.source, input);
  return nodes;
}

LoweredClassNodes LowerSingleQuery(PhysicalPlan& plan, size_t parent,
                                   const std::string& detail, int query_id,
                                   JoinMethod method, const LocalPlan* local) {
  const bool probe = method == JoinMethod::kIndexProbe;
  LoweredClassNodes nodes = LowerSharedClass(
      plan, parent, detail, probe ? 0 : 1, probe ? 1 : 0, probe, query_id,
      /*cls=*/nullptr);
  if (local != nullptr) {
    plan.node(nodes.aggregate).est_ms = local->EstMs();
    plan.node(nodes.source).est_ms = local->est_nonshared_io_ms;
    const size_t filter =
        probe ? nodes.bitmap_filter : nodes.star_join_filter;
    plan.node(filter).est_ms = local->est_nonshared_cpu_ms;
  }
  return nodes;
}

LoweredViewBuild LowerViewBuild(PhysicalPlan& plan, const std::string& detail,
                                size_t num_scans) {
  LoweredViewBuild build;
  build.aggregate = plan.AddNode(PhysOpKind::kAggregate, detail);
  for (size_t i = 0; i < num_scans; ++i) {
    build.scans.push_back(
        plan.AddNode(PhysOpKind::kScan, detail, -1, build.aggregate));
  }
  return build;
}

void LowerGlobalPlan(PhysicalPlan& phys, const GlobalPlan& plan,
                     const StarSchema& schema) {
  for (const ClassPlan& cls : plan.classes) {
    if (cls.base == nullptr || cls.members.empty()) continue;
    const std::string detail = cls.base->spec().ToString(schema);
    // Mirror the executor's oversized-class chunking: members sliced in
    // order into runs of kMaxClassQueries, each run its own chain whose
    // source is a probe only when the run has no hash member.
    for (size_t begin = 0; begin < cls.members.size();
         begin += kMaxClassQueries) {
      const size_t end =
          std::min(cls.members.size(), begin + kMaxClassQueries);
      size_t n_hash = 0, n_index = 0;
      for (size_t i = begin; i < end; ++i) {
        if (cls.members[i].method == JoinMethod::kHashScan) {
          ++n_hash;
        } else {
          ++n_index;
        }
      }
      if (begin == 0 && end == cls.members.size()) {
        LowerSharedClass(phys, kNoPhysNode, detail, n_hash, n_index,
                         /*probe=*/n_hash == 0, /*query_id=*/-1, &cls);
      } else {
        // Chunks re-run through ExecuteClass with a sliced ClassPlan whose
        // class-level estimates are zeroed; reproduce that exactly.
        ClassPlan chunk;
        chunk.base = cls.base;
        chunk.members.assign(cls.members.begin() + begin,
                             cls.members.begin() + end);
        LowerSharedClass(phys, kNoPhysNode, detail, n_hash, n_index,
                         /*probe=*/n_hash == 0, /*query_id=*/-1, &chunk);
      }
    }
  }
}

}  // namespace starshare
