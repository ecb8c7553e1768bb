#include "opt/exhaustive.h"

#include <algorithm>
#include <map>

#include "obs/trace.h"
#include "opt/gg.h"

namespace starshare {
namespace {

struct SearchState {
  const CostModel* cost;
  // Per query: candidate views sorted by standalone cost.
  std::vector<const DimensionalQuery*> queries;
  std::vector<std::vector<MaterializedView*>> candidates;

  // Current partial assignment: view -> member queries.
  std::map<MaterializedView*, std::vector<const DimensionalQuery*>> classes;
  std::map<MaterializedView*, double> class_costs;
  double total = 0;

  double best_total;
  std::map<MaterializedView*, std::vector<const DimensionalQuery*>> best;
  uint64_t nodes = 0;

  void Recurse(size_t i) {
    if (++nodes > ExhaustiveOptimizer::kMaxNodes) return;
    if (total >= best_total) return;  // class costs are monotone: prune
    if (i == queries.size()) {
      best_total = total;
      best = classes;
      return;
    }
    const DimensionalQuery* q = queries[i];
    for (MaterializedView* v : candidates[i]) {
      auto& members = classes[v];
      members.push_back(q);
      const auto old_cost_it = class_costs.find(v);
      const double old_cost =
          old_cost_it == class_costs.end() ? 0 : old_cost_it->second;
      const double new_cost = cost->ClassCostMs(v, members);
      class_costs[v] = new_cost;
      total += new_cost - old_cost;

      Recurse(i + 1);

      total -= new_cost - old_cost;
      members.pop_back();
      if (members.empty()) {
        classes.erase(v);
        class_costs.erase(v);
      } else {
        class_costs[v] = old_cost;
      }
    }
  }
};

}  // namespace

GlobalPlan ExhaustiveOptimizer::Plan(
    const std::vector<const DimensionalQuery*>& queries) const {
  // Seed the bound (and the fallback plan) with GG.
  GlobalGreedyOptimizer gg(schema_, views_, cost_);
  GlobalPlan seed = gg.Plan(queries);

  SearchState state;
  state.cost = &cost_;
  state.queries = queries;
  state.best_total = seed.EstMs();
  for (const auto* q : queries) {
    std::vector<MaterializedView*> cands = AnswerableViews(*q);
    std::sort(cands.begin(), cands.end(),
              [&](MaterializedView* a, MaterializedView* b) {
                return cost_.BestSingleCost(*q, *a).second <
                       cost_.BestSingleCost(*q, *b).second;
              });
    state.candidates.push_back(std::move(cands));
  }
  {
    obs::ScopedSpan span("opt.enumerate");
    span.AddCounter("queries", queries.size());
    state.Recurse(0);
    span.AddCounter("nodes", state.nodes);
  }

  GlobalPlan plan;
  if (state.best.empty()) {
    plan = std::move(seed);  // GG already optimal (or node cap)
  } else {
    for (auto& [view, members] : state.best) {
      plan.classes.push_back(cost_.MakeClassPlan(view, members));
    }
  }
  // Emit the classes in the order their first member appears in the input,
  // not in the order of the search's view addresses, so the plan's EXPLAIN
  // text and the order EstMs sums its classes in follow the workload.
  const auto first_member = [&](const ClassPlan& cls) {
    size_t first = queries.size();
    for (const LocalPlan& m : cls.members) {
      const size_t at = static_cast<size_t>(
          std::find(queries.begin(), queries.end(), m.query) -
          queries.begin());
      first = std::min(first, at);
    }
    return first;
  };
  std::stable_sort(plan.classes.begin(), plan.classes.end(),
                   [&](const ClassPlan& a, const ClassPlan& b) {
                     return first_member(a) < first_member(b);
                   });
  return plan;
}

}  // namespace starshare
