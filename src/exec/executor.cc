#include "exec/executor.h"

#include <algorithm>

#include "common/str_util.h"
#include "exec/operators/class_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/lowering.h"

namespace starshare {
namespace {

void SortById(std::vector<ExecutedQuery>& out) {
  std::sort(out.begin(), out.end(),
            [](const ExecutedQuery& a, const ExecutedQuery& b) {
              return a.query->id() < b.query->id();
            });
}

ExecutedQuery FromOutcome(const DimensionalQuery* query, QueryResult result,
                          Status status) {
  ExecutedQuery out;
  out.query = query;
  out.result = std::move(result);
  out.status = std::move(status);
  return out;
}

// One member of an executed class: its query, method name and estimate
// (< 0 when unpriced).
struct ClassMember {
  const DimensionalQuery* query = nullptr;
  const char* method = "";
  double est_ms = -1.0;
};

// Turns a class's outcome into one entry per member, in `members` order
// (the outcome's slot order); a whole-class failure (malformed class)
// becomes every member's status. Each member gets a routing leaf: an
// "exec.member" span when `traced`, carrying its estimate, row count and
// status, and the same record as a PhysicalMemberStat on the routing node
// (Route when present, Aggregate for one-member classes). Both are made
// after the shared pass, which works on all members at once, so they
// charge no I/O of their own.
std::vector<ExecutedQuery> RecordMembers(
    const std::vector<ClassMember>& members, Result<SharedOutcome> outcome,
    bool traced, PhysicalPlan* phys, const LoweredClassNodes& nodes) {
  static obs::Counter& member_failures =
      obs::Metrics().counter("exec.member_failures");
  std::vector<ExecutedQuery> out;
  out.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    const ClassMember& member = members[i];
    if (outcome.ok()) {
      out.push_back(FromOutcome(member.query, std::move(outcome->results[i]),
                                std::move(outcome->statuses[i])));
    } else {
      out.push_back(FromOutcome(member.query, QueryResult(), outcome.status()));
    }
    const ExecutedQuery& entry = out.back();
    if (!entry.status.ok()) member_failures.Add();
    if (traced) {
      obs::ScopedSpan span("exec.member", member.method, member.query->id());
      span.SetEstMs(member.est_ms);
      span.AddRows(entry.result.num_rows());
      span.SetStatus(entry.status);
    }
    if (phys != nullptr) {
      const size_t stat_node =
          nodes.route != kNoPhysNode ? nodes.route : nodes.aggregate;
      PhysicalMemberStat stat;
      stat.query_id = member.query->id();
      stat.method = member.method;
      stat.est_ms = member.est_ms;
      stat.rows = entry.result.num_rows();
      stat.status_code = static_cast<int>(entry.status.code());
      phys->node(stat_node).member_stats.push_back(std::move(stat));
    }
  }
  return out;
}

}  // namespace

size_t ExecutionReport::num_recovered() const {
  size_t n = 0;
  for (const Event& e : events) n += e.recovered ? 1 : 0;
  return n;
}

size_t ExecutionReport::num_failed() const {
  return events.size() - num_recovered();
}

std::string ExecutionReport::ToString() const {
  if (clean()) return "all queries ran on their planned paths";
  std::string out = StrFormat("%zu quer%s degraded (%zu recovered):\n",
                              events.size(),
                              events.size() == 1 ? "y" : "ies",
                              num_recovered());
  for (const Event& e : events) {
    out += StrFormat("  Q%d: %s", e.query_id, e.error.ToString().c_str());
    if (e.recovered) {
      out += " -> recovered via fact-table fallback";
    } else if (!e.fallback_error.ok()) {
      out += StrFormat(" -> fallback failed: %s",
                       e.fallback_error.ToString().c_str());
    } else {
      out += " -> no fallback available";
    }
    out += "\n";
  }
  return out;
}

Result<QueryResult> Executor::ExecuteSingle(const DimensionalQuery& query,
                                            const MaterializedView& view,
                                            JoinMethod method,
                                            PhysicalPlan* phys, size_t parent,
                                            const LocalPlan* local) const {
  SharedClassRequest req;
  req.schema = &schema_;
  req.view = &view;
  req.disk = &disk_;
  req.policy.batch = policy_.batch;  // always serial: the paper's per-query costs
  req.budget = budget_;
  req.spill = spill_;
  switch (method) {
    case JoinMethod::kHashScan:
      req.hash_queries.push_back(&query);
      req.probe = false;
      break;
    case JoinMethod::kIndexProbe:
      req.index_queries.push_back(&query);
      req.probe = true;
      break;
    default:
      return Status::Internal(
          StrFormat("unknown join method %d for query %d",
                    static_cast<int>(method), query.id()));
  }
  LoweredClassNodes nodes;
  if (phys != nullptr) {
    nodes = LowerSingleQuery(*phys, parent, view.name(), query.id(), method,
                             local);
    req.phys = phys;
    req.nodes = &nodes;
  }
  Result<SharedOutcome> outcome = ExecuteSharedClass(req);
  if (!outcome.ok()) return outcome.status();
  if (!outcome->statuses[0].ok()) return outcome->statuses[0];
  return std::move(outcome->results[0]);
}

std::vector<ExecutedQuery> Executor::ExecuteClass(const ClassPlan& cls,
                                                  PhysicalPlan* phys) const {
  SS_CHECK(cls.base != nullptr && !cls.members.empty());
  static obs::Counter& classes = obs::Metrics().counter("exec.classes");
  static obs::Histogram& class_members =
      obs::Metrics().histogram("exec.class_members");
  classes.Add();
  class_members.Observe(cls.members.size());

  const std::string detail = cls.base->spec().ToString(schema_);
  obs::ScopedSpan class_span("exec.class", detail);
  class_span.SetEstMs(cls.EstMs());
  std::vector<const DimensionalQuery*> hash_queries;
  std::vector<const DimensionalQuery*> index_queries;
  for (const auto& m : cls.members) {
    (m.method == JoinMethod::kHashScan ? hash_queries : index_queries)
        .push_back(m.query);
  }

  // The shared-scan pass masks are 32 bits wide; an oversized class is
  // evaluated in chunks (one extra scan per 32 hash members — still far
  // cheaper than per-query scans, and correct). Each chunk lowers and runs
  // its own chain, mirrored exactly by LowerGlobalPlan.
  if (cls.members.size() > kMaxClassQueries) {
    std::vector<ExecutedQuery> out;
    for (size_t begin = 0; begin < cls.members.size();
         begin += kMaxClassQueries) {
      ClassPlan chunk;
      chunk.base = cls.base;
      const size_t end =
          std::min(begin + kMaxClassQueries, cls.members.size());
      chunk.members.assign(cls.members.begin() + static_cast<long>(begin),
                           cls.members.begin() + static_cast<long>(end));
      for (auto& r : ExecuteClass(chunk, phys)) out.push_back(std::move(r));
    }
    return out;
  }

  const bool probe = hash_queries.empty();
  SharedClassRequest req;
  req.schema = &schema_;
  req.hash_queries = hash_queries;
  req.index_queries = index_queries;
  req.view = cls.base;
  req.disk = &disk_;
  req.policy = policy_;  // serial or morsel-parallel: the driver's choice
  req.probe = probe;
  req.budget = budget_;
  req.spill = spill_;
  LoweredClassNodes nodes;
  if (phys != nullptr) {
    nodes = LowerSharedClass(*phys, kNoPhysNode, detail, hash_queries.size(),
                             index_queries.size(), probe, /*query_id=*/-1,
                             &cls);
    req.phys = phys;
    req.nodes = &nodes;
  }
  // Members in the outcome's slot order: hash members, then index members.
  std::vector<ClassMember> members;
  for (const bool hash : {true, false}) {
    for (const LocalPlan& m : cls.members) {
      if ((m.method == JoinMethod::kHashScan) != hash) continue;
      members.push_back({m.query, JoinMethodName(m.method), m.EstMs()});
    }
  }
  return RecordMembers(members, ExecuteSharedClass(req), class_span.active(),
                       phys, nodes);
}

std::vector<ExecutedQuery> Executor::ExecuteDerivedClass(
    const std::vector<const DimensionalQuery*>& queries,
    const MaterializedView& view, double rollup_est_ms,
    const std::vector<double>* member_est_ms, PhysicalPlan* phys,
    size_t input_node, std::vector<size_t>* aggregate_nodes) const {
  SS_CHECK(!queries.empty());
  SS_CHECK(member_est_ms == nullptr || member_est_ms->size() == queries.size());
  static obs::Counter& classes =
      obs::Metrics().counter("exec.derived_classes");
  classes.Add();

  // Same 32-wide pass-mask limit as the shared scan: oversized rollup
  // classes re-read the derived table once per chunk — in-memory rows, so
  // the extra passes cost CPU only.
  if (queries.size() > kMaxClassQueries) {
    std::vector<ExecutedQuery> out;
    for (size_t begin = 0; begin < queries.size();
         begin += kMaxClassQueries) {
      const size_t end = std::min(begin + kMaxClassQueries, queries.size());
      const std::vector<const DimensionalQuery*> chunk(
          queries.begin() + static_cast<long>(begin),
          queries.begin() + static_cast<long>(end));
      std::vector<double> chunk_est;
      if (member_est_ms != nullptr) {
        chunk_est.assign(member_est_ms->begin() + static_cast<long>(begin),
                         member_est_ms->begin() + static_cast<long>(end));
      }
      double chunk_total = 0.0;
      for (const double est : chunk_est) chunk_total += est;
      for (auto& r : ExecuteDerivedClass(
               chunk, view, member_est_ms != nullptr ? chunk_total : -1.0,
               member_est_ms != nullptr ? &chunk_est : nullptr, phys,
               input_node, aggregate_nodes)) {
        out.push_back(std::move(r));
      }
    }
    return out;
  }

  const std::string detail = view.name();
  obs::ScopedSpan class_span("exec.class", detail);
  if (rollup_est_ms >= 0.0) class_span.SetEstMs(rollup_est_ms);

  SharedClassRequest req;
  req.schema = &schema_;
  req.hash_queries = queries;
  req.view = &view;
  req.disk = &disk_;
  req.policy = policy_;
  req.derived = true;
  req.budget = budget_;
  req.spill = spill_;
  LoweredClassNodes nodes;
  if (phys != nullptr) {
    nodes = LowerDerivedClass(*phys, kNoPhysNode, detail, queries.size(),
                              /*query_id=*/-1, input_node, rollup_est_ms,
                              member_est_ms);
    req.phys = phys;
    req.nodes = &nodes;
  }
  if (aggregate_nodes != nullptr) {
    aggregate_nodes->insert(aggregate_nodes->end(), queries.size(),
                            phys != nullptr ? nodes.aggregate : kNoPhysNode);
  }
  std::vector<ClassMember> members;
  for (size_t i = 0; i < queries.size(); ++i) {
    members.push_back({queries[i], "rollup",
                       member_est_ms != nullptr ? (*member_est_ms)[i] : -1.0});
  }
  return RecordMembers(members, ExecuteSharedClass(req), class_span.active(),
                       phys, nodes);
}

std::vector<ExecutedQuery> Executor::ExecutePlan(const GlobalPlan& plan,
                                                 PhysicalPlan* phys) const {
  std::vector<ExecutedQuery> out;
  for (const auto& cls : plan.classes) {
    std::vector<ExecutedQuery> cls_results = ExecuteClass(cls, phys);
    for (auto& r : cls_results) out.push_back(std::move(r));
  }
  SortById(out);
  return out;
}

std::vector<ExecutedQuery> Executor::ExecutePlanUnshared(
    const GlobalPlan& plan, PhysicalPlan* phys) const {
  std::vector<ExecutedQuery> out;
  for (const auto& cls : plan.classes) {
    for (const auto& m : cls.members) {
      Result<QueryResult> r = ExecuteSingle(*m.query, *cls.base, m.method,
                                            phys, kNoPhysNode, &m);
      if (r.ok()) {
        out.push_back(FromOutcome(m.query, std::move(r.value()), Status::Ok()));
      } else {
        out.push_back(FromOutcome(m.query, QueryResult(), r.status()));
      }
    }
  }
  SortById(out);
  return out;
}

}  // namespace starshare
