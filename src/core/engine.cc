#include "core/engine.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>

#include "opt/local_optimizer.h"
#include "common/str_util.h"
#include "exec/derived_table.h"
#include "obs/metrics.h"
#include "server/query_server.h"
#include "storage/table_io.h"

namespace starshare {
namespace {

// Checks that `table` has the layout `spec` stores: one key column per
// retained dimension, named as the engine's own writers name it
// (GroupBySpec::KeyColumnNames, so permuted columns cannot fold into the
// wrong dimensions), one measure column per schema measure, and every key
// inside its stored level's domain (the dense id range the pass masks,
// translators and statistics index), read from each column's exact bounds.
// A failure carries `code`.
Status CheckTableFitsSpec(const StarSchema& schema, const GroupBySpec& spec,
                          const Table& table, StatusCode code) {
  const std::vector<size_t> retained = spec.RetainedDims(schema);
  if (table.num_key_columns() != retained.size()) {
    return Status(code,
                  StrFormat("table %s has %zu key columns, %s stores %zu",
                            table.name().c_str(), table.num_key_columns(),
                            spec.ToString(schema).c_str(), retained.size()));
  }
  if (table.num_measures() != schema.num_measures()) {
    return Status(code,
                  StrFormat("table %s has %zu measure columns, want %zu",
                            table.name().c_str(), table.num_measures(),
                            schema.num_measures()));
  }
  const std::vector<std::string> names = spec.KeyColumnNames(schema);
  for (size_t c = 0; c < retained.size(); ++c) {
    if (table.key_column_name(c) != names[c]) {
      return Status(code, StrFormat("table %s: key column %zu is %s, want %s",
                                    table.name().c_str(), c,
                                    table.key_column_name(c).c_str(),
                                    names[c].c_str()));
    }
  }
  for (size_t c = 0; c < retained.size(); ++c) {
    const size_t d = retained[c];
    const int64_t card = schema.dim(d).cardinality(spec.level(d));
    const KeyColumn& col = table.key_column(c);
    if (col.size() > 0 && (col.min() < 0 || col.max() >= card)) {
      return Status(code, StrFormat("table %s: key out of range on %s",
                                    table.name().c_str(),
                                    schema.dim(d).dim_name().c_str()));
    }
  }
  return Status::Ok();
}

}  // namespace

bool DefaultCompressedPages() {
  const char* env = std::getenv("STARSHARE_UNCOMPRESSED");
  return env == nullptr || *env == '\0' || std::string_view(env) == "0";
}

Engine::~Engine() {
  // Joins the server's controller thread before any member it references
  // (executor_, disk_, result_cache_, memory_budget_) is destroyed.
  server_.reset();
}

QueryServer& Engine::server() {
  std::lock_guard<std::mutex> lock(server_mu_);
  if (server_ == nullptr) {
    server_ = std::make_unique<QueryServer>(*this, config_.server,
                                            result_cache_.get(),
                                            &memory_budget_, &executor_);
  }
  return *server_;
}

Session Engine::OpenSession() { return server().OpenSession(); }

QueryHandle Engine::Submit(const DimensionalQuery& query) {
  return server().Submit(/*session_id=*/0, query);
}

void Engine::StopServer() {
  std::lock_guard<std::mutex> lock(server_mu_);
  if (server_ != nullptr) server_->Stop();
}

Engine::Engine(StarSchema schema, EngineConfig config)
    : schema_(std::move(schema)),
      config_(config),
      disk_(config.disk_timings),
      cost_(schema_, config.disk_timings, config.cpu_costs),
      memory_budget_(config.memory_budget_bytes),
      builder_(schema_),
      executor_(schema_, disk_) {
  if (config_.buffer_pool_pages > 0) {
    pool_ = std::make_unique<BufferPool>(config_.buffer_pool_pages);
    disk_.AttachBufferPool(pool_.get());
  }
  if (config_.result_cache_entries > 0) {
    result_cache_ =
        std::make_unique<ResultCache>(config_.result_cache_entries);
  }
  set_parallelism(config_.parallelism);
  // Compressed layout: the catalog normalizes every registered table
  // (generator output, view builds, cube loads, attached fact tables), and
  // the builder packs before charging view-write I/O.
  catalog_.set_compressed_default(config_.compressed_pages);
  builder_.set_compressed_pages(config_.compressed_pages);
  const SpillConfig spill{config_.scratch_dir};
  executor_.set_memory_budget(&memory_budget_, spill);
  builder_.set_memory_budget(&memory_budget_, spill);
}

void Engine::set_memory_budget_bytes(uint64_t bytes) {
  config_.memory_budget_bytes = bytes;
  memory_budget_ = MemoryBudget(bytes);
}

void Engine::set_parallelism(size_t parallelism) {
  if (parallelism == 0) parallelism = ThreadPool::HardwareThreads();
  parallelism_ = parallelism;
  ParallelPolicy policy;
  policy.morsel_rows = config_.morsel_rows;
  policy.batch = config_.batch;
  if (parallelism > 1) {
    if (thread_pool_ == nullptr ||
        thread_pool_->num_threads() != parallelism) {
      thread_pool_.reset();  // join the old workers before respawning
      thread_pool_ = std::make_unique<ThreadPool>(parallelism);
    }
    policy.pool = thread_pool_.get();
    policy.parallelism = parallelism;
  } else {
    thread_pool_.reset();
  }
  executor_.set_parallel_policy(policy);
  builder_.set_parallel_policy(policy);
}

MaterializedView* Engine::LoadFactTable(const DataGeneratorConfig& config) {
  DataGenerator generator(schema_, config);
  const GroupBySpec base = GroupBySpec::Base(schema_);
  Result<MaterializedView*> view =
      AttachFactTable(generator.Generate(base.ToString(schema_)));
  SS_CHECK_MSG(view.ok(), "%s", view.status().ToString().c_str());
  return view.value();
}

Result<MaterializedView*> Engine::AttachFactTable(
    std::unique_ptr<Table> table) {
  if (base_view_ != nullptr) {
    return Status::FailedPrecondition("fact table already loaded");
  }
  SS_RETURN_IF_ERROR(CheckTableFitsSpec(schema_, GroupBySpec::Base(schema_),
                                        *table, StatusCode::kInvalidArgument));
  Result<Table*> registered = catalog_.Register(std::move(table));
  if (!registered.ok()) return registered.status();
  auto view = std::make_unique<MaterializedView>(
      schema_, GroupBySpec::Base(schema_), registered.value());
  view->ComputeStats(schema_);
  base_view_ = views_.Add(std::move(view));
  return base_view_;
}

Status Engine::AppendFacts(const DataGeneratorConfig& config) {
  DataGenerator generator(schema_, config);
  return AppendFactTable(generator.Generate("delta"));
}

Status Engine::AppendFactTable(std::unique_ptr<Table> delta) {
  if (config_.trace && obs::Tracer::Current() == nullptr) {
    return Traced("engine.append_facts",
                  [&] { return AppendFactTable(std::move(delta)); });
  }
  if (base_view_ == nullptr) {
    return Status::FailedPrecondition("load the fact table first");
  }
  {
    // The append edits views, statistics and indexes in place, which a
    // running server's controller thread reads.
    std::lock_guard<std::mutex> lock(server_mu_);
    if (server_ != nullptr && !server_->stop_requested()) {
      return Status::FailedPrecondition(
          "stop the query server before appending facts");
    }
  }
  if (delta == nullptr) return Status::InvalidArgument("no delta table");
  SS_RETURN_IF_ERROR(CheckTableFitsSpec(schema_, GroupBySpec::Base(schema_),
                                        *delta, StatusCode::kInvalidArgument));
  const MaterializedView delta_view(schema_, GroupBySpec::Base(schema_),
                                    delta.get());

  // 1. Append to the base table (new pages written). Base rows never move,
  //    so every new row is inserted after the old ones.
  Table& base = base_view_->table();
  const uint64_t old_rows = base.num_rows();
  const uint64_t old_pages = base.num_pages();
  std::vector<int32_t> key(schema_.num_dims());
  std::vector<double> values(schema_.num_measures());
  for (uint64_t r = 0; r < delta->num_rows(); ++r) {
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      key[d] = delta->key(d, r);
    }
    for (size_t m = 0; m < values.size(); ++m) {
      values[m] = delta->measure(r, m);
    }
    base.AppendRowM(key.data(), values.data());
  }
  disk_.WritePages(base.num_pages() - old_pages);
  base_view_->SpliceRows(
      schema_, &base, std::vector<uint64_t>(delta->num_rows(), old_rows),
      disk_);

  if (result_cache_ != nullptr) result_cache_->Clear();  // data changed

  // 2. Refresh every view from (old view + delta): never rescans the base.
  //    Statistics and indexes follow the inserted cells.
  for (const auto& view : views_.all()) {
    if (view.get() == base_view_) continue;
    RefreshedTable refreshed = builder_.Refresh(*view, delta_view, disk_);
    Result<Table*> registered = catalog_.Replace(std::move(refreshed.table));
    if (!registered.ok()) return registered.status();
    view->SpliceRows(schema_, registered.value(), refreshed.inserted_before,
                     disk_);
  }
  return Status::Ok();
}

Result<MaterializedView*> Engine::MaterializeView(
    const std::string& spec_text, bool clustered) {
  Result<GroupBySpec> spec = GroupBySpec::Parse(spec_text, schema_);
  if (!spec.ok()) return spec.status();
  return MaterializeView(spec.value(), clustered);
}

Result<MaterializedView*> Engine::MaterializeView(const GroupBySpec& spec,
                                                  bool clustered) {
  if (config_.trace && obs::Tracer::Current() == nullptr) {
    return Traced("engine.materialize",
                  [&] { return MaterializeView(spec, clustered); });
  }
  if (base_view_ == nullptr) {
    return Status::FailedPrecondition("load the fact table first");
  }
  if (views_.Find(spec) != nullptr) {
    return Status::InvalidArgument("view already materialized: " +
                                   spec.ToString(schema_));
  }
  // Aggregate from the smallest existing view able to produce it.
  const auto sources = views_.CandidatesFor(spec);
  if (sources.empty()) {
    return Status::InvalidArgument("no source can materialize " +
                                   spec.ToString(schema_));
  }
  Result<std::vector<std::unique_ptr<Table>>> built =
      builder_.Build(*sources.front(), {spec}, disk_, clustered);
  if (!built.ok()) return built.status();
  Result<Table*> table = catalog_.Register(std::move(built->front()));
  if (!table.ok()) return table.status();
  auto view = std::make_unique<MaterializedView>(schema_, spec, table.value());
  view->set_clustered(clustered);
  view->ComputeStats(schema_);
  return views_.Add(std::move(view));
}

Result<std::vector<MaterializedView*>> Engine::MaterializeViews(
    const std::vector<std::string>& spec_texts, bool clustered) {
  if (config_.trace && obs::Tracer::Current() == nullptr) {
    return Traced("engine.materialize",
                  [&] { return MaterializeViews(spec_texts, clustered); });
  }
  if (base_view_ == nullptr) {
    return Status::FailedPrecondition("load the fact table first");
  }
  if (spec_texts.empty()) {
    return Status::InvalidArgument("no group-bys to materialize");
  }
  std::vector<GroupBySpec> specs;
  std::vector<int> combined(schema_.num_dims(),
                            std::numeric_limits<int>::max());
  for (const std::string& text : spec_texts) {
    Result<GroupBySpec> spec = GroupBySpec::Parse(text, schema_);
    if (!spec.ok()) return spec.status();
    if (views_.Find(spec.value()) != nullptr) {
      return Status::InvalidArgument("view already materialized: " + text);
    }
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      combined[d] = std::min(combined[d], spec.value().level(d));
    }
    specs.push_back(std::move(spec.value()));
  }
  // Smallest existing view able to produce every target.
  const auto sources = views_.CandidatesFor(GroupBySpec(std::move(combined)));
  if (sources.empty()) {
    return Status::InvalidArgument(
        "no single source can materialize all requested group-bys");
  }
  Result<std::vector<std::unique_ptr<Table>>> tables =
      builder_.Build(*sources.front(), specs, disk_, clustered);
  if (!tables.ok()) return tables.status();
  std::vector<MaterializedView*> out;
  out.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    Result<Table*> registered = catalog_.Register(std::move((*tables)[i]));
    if (!registered.ok()) return registered.status();
    auto view = std::make_unique<MaterializedView>(schema_, specs[i],
                                                   registered.value());
    view->set_clustered(clustered);
    view->ComputeStats(schema_);
    out.push_back(views_.Add(std::move(view)));
  }
  return out;
}

Status Engine::BuildIndexes(const std::string& spec_text,
                            const std::vector<std::string>& dims) {
  Result<GroupBySpec> spec = GroupBySpec::Parse(spec_text, schema_);
  if (!spec.ok()) return spec.status();
  MaterializedView* view = views_.Find(spec.value());
  if (view == nullptr) {
    return Status::NotFound("view not materialized: " + spec_text);
  }
  for (const std::string& name : dims) {
    Result<size_t> dim = schema_.DimIndex(name);
    if (!dim.ok()) return dim.status();
    if (view->KeyColForDim(dim.value()) == SIZE_MAX) {
      return Status::InvalidArgument("dimension " + name +
                                     " is aggregated away in " + spec_text);
    }
    view->BuildIndex(schema_, dim.value(), disk_);
  }
  return Status::Ok();
}

Status Engine::DropView(const std::string& spec_text) {
  Result<GroupBySpec> spec = GroupBySpec::Parse(spec_text, schema_);
  if (!spec.ok()) return spec.status();
  if (spec.value() == GroupBySpec::Base(schema_)) {
    return Status::InvalidArgument("cannot drop the base table");
  }
  MaterializedView* view = views_.Find(spec.value());
  if (view == nullptr) {
    return Status::NotFound("view not materialized: " + spec_text);
  }
  const std::string table_name = view->name();
  SS_CHECK(views_.Remove(spec.value()));
  return catalog_.Drop(table_name);
}

Result<std::vector<DimensionalQuery>> Engine::ParseMdx(
    const std::string& text, int first_id) const {
  return mdx::ParseAndExpandMdx(text, schema_, first_id);
}

Result<CubeQuery> Engine::ParseCube(const std::string& text) const {
  return mdx::ParseAndExpandCube(text, schema_);
}

GlobalPlan Engine::Optimize(const std::vector<DimensionalQuery>& queries,
                            OptimizerKind kind) const {
  std::vector<const DimensionalQuery*> ptrs;
  ptrs.reserve(queries.size());
  for (const auto& q : queries) ptrs.push_back(&q);
  return Optimize(ptrs, kind);
}

GlobalPlan Engine::Optimize(
    const std::vector<const DimensionalQuery*>& queries,
    OptimizerKind kind) const {
  SS_CHECK_MSG(base_view_ != nullptr, "load the fact table first");
  SS_CHECK_MSG(!queries.empty(), "nothing to optimize");
  return MakeOptimizer(kind, schema_, views_, cost_)->Plan(queries);
}

std::vector<ExecutedQuery> Engine::Execute(const GlobalPlan& plan) {
  if (config_.trace && obs::Tracer::Current() == nullptr) {
    return std::move(ExecuteTraced(plan).results);
  }
  return RunPlanWithFallback(plan);
}

TracedExecution Engine::ExecuteTraced(const GlobalPlan& plan) {
  TracedExecution out;
  out.results = Traced("engine.execute",
                       [&] { return RunPlanWithFallback(plan); });
  out.trace = last_trace_;
  return out;
}

TracedExecution Engine::ExecuteTraced(
    const std::vector<DimensionalQuery>& queries, OptimizerKind kind) {
  TracedExecution out;
  out.results = Traced("engine.session", [&] {
    GlobalPlan plan;
    {
      obs::ScopedSpan opt_span("engine.optimize", OptimizerKindName(kind));
      plan = Optimize(queries, kind);
      opt_span.AddCounter("classes", plan.classes.size());
      opt_span.AddCounter("queries", plan.NumQueries());
      opt_span.SetEstMs(plan.EstMs());
    }
    obs::ScopedSpan exec_span("engine.execute");
    return RunPlanWithFallback(plan);
  });
  out.trace = last_trace_;
  return out;
}

void Engine::RecoverQuery(ExecutedQuery& entry, PhysicalPlan& phys) {
  static obs::Counter& fallbacks = obs::Metrics().counter("engine.fallbacks");
  fallbacks.Add();
  const size_t fb =
      phys.AddNode(PhysOpKind::kFallback, "", entry.query->id());
  NodeExec span(phys, fb, disk_);
  span.SetStatus(entry.status);  // the planned evaluation's failure

  ExecutionReport::Event event;
  event.query_id = entry.query->id();
  event.error = entry.status;
  // Re-plan as a single-query hash star join against the fact table: the
  // base answers every query (any aggregate, any predicate), needs no
  // index, and shares no state with whatever just failed. Its chain lowers
  // under the Fallback node, so the retry is visible plan structure.
  if (base_view_ != nullptr) {
    Result<QueryResult> fallback = executor_.ExecuteSingle(
        *entry.query, *base_view_, JoinMethod::kHashScan, &phys, fb);
    if (fallback.ok()) {
      entry.result = std::move(fallback.value());
      entry.status = Status::Ok();
      entry.degraded = true;
      event.recovered = true;
      span.AddRows(entry.result.num_rows());
      span.AddCounter("recovered", 1);
    } else {
      event.fallback_error = fallback.status();
      entry.status = Status(
          fallback.status().code(),
          event.error.message() +
              "; fact-table fallback also failed: " +
              fallback.status().message());
    }
  }
  report_.events.push_back(std::move(event));
}

std::vector<ExecutedQuery> Engine::RunPlanWithFallbackInto(
    const GlobalPlan& plan, PhysicalPlan& phys) {
  static obs::Counter& executions = obs::Metrics().counter("engine.executions");
  executions.Add();
  report_ = ExecutionReport();
  std::vector<ExecutedQuery> out = executor_.ExecutePlan(plan, &phys);
  for (ExecutedQuery& entry : out) {
    if (!entry.status.ok()) RecoverQuery(entry, phys);
  }
  return out;
}

std::vector<ExecutedQuery> Engine::RunPlanWithFallback(
    const GlobalPlan& plan) {
  PhysicalPlan phys;
  std::vector<ExecutedQuery> out = RunPlanWithFallbackInto(plan, phys);
  last_physical_plan_ = std::move(phys);
  return out;
}

Result<CubeExecution> Engine::ExecuteCube(const CubeQuery& cube,
                                          OptimizerKind kind, int first_id) {
  if (config_.trace && obs::Tracer::Current() == nullptr) {
    return Traced("engine.execute_cube",
                  [&] { return ExecuteCube(cube, kind, first_id); });
  }
  if (base_view_ == nullptr) {
    return Status::FailedPrecondition("load the fact table first");
  }
  static obs::Counter& cubes =
      obs::Metrics().counter("engine.cube_executions");
  cubes.Add();

  Result<LatticePlan> planned = [&] {
    obs::ScopedSpan plan_span("cube.plan_lattice");
    Result<LatticePlan> lattice =
        PlanLattice(cube, schema_, views_, cost_, first_id);
    if (lattice.ok()) {
      plan_span.AddCounter("levels", lattice.value().steps.size());
      plan_span.AddCounter("rollups", lattice.value().NumRollups());
    } else {
      plan_span.SetStatus(lattice.status());
    }
    return lattice;
  }();
  if (!planned.ok()) return planned.status();

  CubeExecution out;
  out.lattice = std::move(planned.value());
  std::vector<LatticeStep>& steps = out.lattice.steps;
  out.results.resize(steps.size());

  report_ = ExecutionReport();
  PhysicalPlan phys;

  // 1. The base levels run as one ordinary related-query batch: whatever
  //    sharing `kind` finds applies unchanged, and the fact (or view) pages
  //    are read here — once for the whole lattice.
  GlobalPlan plan;
  {
    obs::ScopedSpan opt_span("engine.optimize", OptimizerKindName(kind));
    plan = Optimize(out.lattice.BaseQueries(), kind);
    opt_span.AddCounter("classes", plan.classes.size());
    opt_span.AddCounter("queries", plan.NumQueries());
    opt_span.SetEstMs(plan.EstMs());
  }
  std::vector<ExecutedQuery> base_results = executor_.ExecutePlan(plan, &phys);
  for (ExecutedQuery& entry : base_results) {
    if (!entry.status.ok()) RecoverQuery(entry, phys);
  }
  for (ExecutedQuery& entry : base_results) {
    const size_t step = static_cast<size_t>(entry.query->id() - first_id);
    SS_CHECK(step < steps.size());
    out.results[step] = std::move(entry);
  }

  // Producer map: for every finished step, the physical node whose output a
  // child rollup reads — the member's class-chunk Aggregate root, or the
  // Fallback that recovered it (fallback roots come later, so they win).
  std::vector<size_t> producer(steps.size(), kNoPhysNode);
  for (const size_t root : phys.roots()) {
    const PhysicalNode& node = phys.node(root);
    const std::vector<PhysicalMemberStat>* stats = nullptr;
    if (node.kind == PhysOpKind::kAggregate) {
      if (!node.member_stats.empty()) {
        stats = &node.member_stats;
      } else {
        for (const size_t child : node.children) {
          if (phys.node(child).kind == PhysOpKind::kRoute &&
              !phys.node(child).member_stats.empty()) {
            stats = &phys.node(child).member_stats;
            break;
          }
        }
      }
    }
    if (stats != nullptr) {
      for (const PhysicalMemberStat& stat : *stats) {
        const size_t step = static_cast<size_t>(stat.query_id - first_id);
        if (step < steps.size()) producer[step] = root;
      }
    } else if (node.kind == PhysOpKind::kFallback &&
               node.query_id >= first_id) {
      const size_t step = static_cast<size_t>(node.query_id - first_id);
      if (step < steps.size()) producer[step] = root;
    }
  }

  // 2. Rollup levels, grouped by scheduled parent in step order: parents
  //    always precede their children and rollups cascade, so by induction
  //    every parent's result is finished when its group runs. Each group
  //    re-batches the parent's groups through the derived pipeline — zero
  //    fact I/O by construction (DerivedSourceOp charges nothing).
  for (size_t p = 0; p < steps.size(); ++p) {
    std::vector<size_t> children;
    for (size_t c = p + 1; c < steps.size(); ++c) {
      if (steps[c].parent == p) children.push_back(c);
    }
    if (children.empty()) continue;

    if (!out.results[p].ok()) {
      // The parent produced no groups (even its fallback failed); each
      // child degrades through the fact-table fallback on its own.
      for (const size_t c : children) {
        ExecutedQuery& entry = out.results[c];
        entry.query = &steps[c].query;
        entry.status = Status::FailedPrecondition(
            StrFormat("rollup parent q%d failed", steps[p].query.id()));
        RecoverQuery(entry, phys);
        producer[c] = phys.roots().back();
      }
      continue;
    }

    std::unique_ptr<Table> derived = MakeDerivedTable(
        schema_, steps[p].query.target(), out.results[p].result,
        "rollup(" + steps[p].query.target().ToString(schema_) + ")");
    MaterializedView derived_view(schema_, steps[p].query.target(),
                                  derived.get());
    derived_view.ComputeStats(schema_);

    std::vector<DimensionalQuery> rollup_queries;
    rollup_queries.reserve(children.size());
    std::vector<double> member_est;
    member_est.reserve(children.size());
    double class_est = 0.0;
    for (const size_t c : children) {
      rollup_queries.push_back(RollupQueryFor(steps[c].query));
      member_est.push_back(steps[c].est_rollup_ms);
      if (steps[c].est_rollup_ms > 0.0) class_est += steps[c].est_rollup_ms;
    }
    std::vector<const DimensionalQuery*> rollup_ptrs;
    rollup_ptrs.reserve(children.size());
    for (const DimensionalQuery& q : rollup_queries) rollup_ptrs.push_back(&q);

    std::vector<size_t> agg_nodes;
    std::vector<ExecutedQuery> rolled = executor_.ExecuteDerivedClass(
        rollup_ptrs, derived_view, class_est, &member_est, &phys,
        producer[p], &agg_nodes);
    SS_CHECK(rolled.size() == children.size());
    for (size_t i = 0; i < children.size(); ++i) {
      const size_t c = children[i];
      ExecutedQuery& entry = out.results[c];
      entry.query = &steps[c].query;
      if (rolled[i].ok()) {
        entry.result = std::move(rolled[i].result);
        // COUNT rolls up as a SUM of the parent's per-group counts;
        // relabel the result as what the user asked for.
        entry.result.set_agg(steps[c].query.agg());
        entry.status = Status::Ok();
        producer[c] = agg_nodes[i];
      } else {
        entry.status = std::move(rolled[i].status);
        RecoverQuery(entry, phys);
        producer[c] = phys.roots().back();
      }
    }
  }

  last_physical_plan_ = std::move(phys);
  return out;
}

std::vector<ExecutedQuery> Engine::ExecuteNaive(
    const std::vector<DimensionalQuery>& queries) {
  if (config_.trace && obs::Tracer::Current() == nullptr) {
    return Traced("engine.execute_naive",
                  [&] { return ExecuteNaive(queries); });
  }
  report_ = ExecutionReport();
  PhysicalPlan phys;
  std::vector<ExecutedQuery> out;
  out.reserve(queries.size());
  for (const DimensionalQuery& q : queries) {
    std::vector<MaterializedView*> candidates;
    if (q.agg() != AggOp::kSum) {
      candidates = {base_view_};
    } else {
      candidates = views_.CandidatesFor(q.RequiredSpec(schema_));
    }
    const LocalChoice choice = BestLocalPlan(q, candidates, cost_);
    Result<QueryResult> r =
        executor_.ExecuteSingle(q, *choice.view, choice.method, &phys);
    ExecutedQuery entry;
    entry.query = &q;
    if (r.ok()) {
      entry.result = std::move(r.value());
    } else {
      entry.status = r.status();
      RecoverQuery(entry, phys);
    }
    out.push_back(std::move(entry));
  }
  last_physical_plan_ = std::move(phys);
  return out;
}

std::vector<ExecutedQuery> Engine::ExecuteUnshared(const GlobalPlan& plan) {
  PhysicalPlan phys;
  std::vector<ExecutedQuery> out = executor_.ExecutePlanUnshared(plan, &phys);
  last_physical_plan_ = std::move(phys);
  return out;
}

std::vector<ExecutedQuery> Engine::ExecuteCached(
    const std::vector<DimensionalQuery>& queries, OptimizerKind kind) {
  SS_CHECK_MSG(result_cache_ != nullptr,
               "result cache disabled; set result_cache_entries");
  if (config_.trace && obs::Tracer::Current() == nullptr) {
    return Traced("engine.execute_cached",
                  [&] { return ExecuteCached(queries, kind); });
  }
  report_ = ExecutionReport();
  PhysicalPlan phys;
  std::vector<ExecutedQuery> out(queries.size());
  std::vector<const DimensionalQuery*> misses;
  std::vector<size_t> miss_slots;
  std::vector<std::string> miss_keys;
  const size_t cache_node = phys.AddNode(PhysOpKind::kCacheLookup);
  {
    NodeExec lookup(phys, cache_node, disk_);
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string key = ResultCache::KeyOf(queries[i], schema_);
      const QueryResult* cached = result_cache_->Lookup(key);
      if (cached != nullptr) {
        out[i].query = &queries[i];
        out[i].result = *cached;
      } else {
        misses.push_back(&queries[i]);
        miss_slots.push_back(i);
        miss_keys.push_back(key);
      }
    }
    lookup.AddCounter("hits", queries.size() - misses.size());
    lookup.AddCounter("misses", misses.size());
  }
  if (!misses.empty()) {
    const GlobalPlan plan = Optimize(misses, kind);
    std::vector<ExecutedQuery> fresh = RunPlanWithFallbackInto(plan, phys);
    // The miss-execution chains ran as their own roots; hang them under the
    // lookup node so the stored tree reads as one cached run.
    phys.AdoptRootsAsChildren(cache_node, 1);
    // ExecutePlan returns by ascending query id; map back to input slots.
    for (ExecutedQuery& r : fresh) {
      for (size_t m = 0; m < misses.size(); ++m) {
        if (misses[m] == r.query) {
          // Never cache a failed (empty) result; a later call retries it.
          if (r.status.ok()) result_cache_->Insert(miss_keys[m], r.result);
          out[miss_slots[m]] = std::move(r);
          break;
        }
      }
    }
  }
  last_physical_plan_ = std::move(phys);
  return out;
}

Status Engine::SaveCube(const std::string& directory) const {
  if (base_view_ == nullptr) {
    return Status::FailedPrecondition("nothing to save: no fact table");
  }
  ::mkdir(directory.c_str(), 0755);  // ok if it already exists

  // Base first so LoadCube can attach it before the views.
  std::vector<const MaterializedView*> ordered = {base_view_};
  for (const auto& view : views_.all()) {
    if (view.get() != base_view_) ordered.push_back(view.get());
  }

  std::string manifest;
  for (size_t i = 0; i < ordered.size(); ++i) {
    const std::string filename = StrFormat("view_%zu.sstb", i);
    SS_RETURN_IF_ERROR(
        WriteTableFile(ordered[i]->table(), directory + "/" + filename));
    manifest += StrFormat("%s\t%d\t%s\n",
                          ordered[i]->spec().ToString(schema_).c_str(),
                          ordered[i]->clustered() ? 1 : 0, filename.c_str());
  }

  FILE* f = std::fopen((directory + "/cube.manifest").c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot write manifest in " + directory);
  }
  const size_t written = std::fwrite(manifest.data(), 1, manifest.size(), f);
  std::fclose(f);
  if (written != manifest.size()) {
    return Status::Internal("short manifest write in " + directory);
  }
  return Status::Ok();
}

Status Engine::LoadCube(const std::string& directory,
                        std::vector<std::string>* skipped_views) {
  if (base_view_ != nullptr) {
    return Status::FailedPrecondition("engine already has a fact table");
  }
  std::ifstream manifest(directory + "/cube.manifest");
  if (!manifest.is_open()) {
    return Status::NotFound("no cube.manifest in " + directory);
  }
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    const size_t tab1 = line.find('\t');
    const size_t tab2 = line.find('\t', tab1 + 1);
    if (tab1 == std::string::npos || tab2 == std::string::npos) {
      return Status::InvalidArgument("malformed manifest line: " + line);
    }
    const std::string spec_text = line.substr(0, tab1);
    const bool clustered = line.substr(tab1 + 1, tab2 - tab1 - 1) == "1";
    const std::string filename = line.substr(tab2 + 1);

    Result<GroupBySpec> spec = GroupBySpec::Parse(spec_text, schema_);
    if (!spec.ok()) return spec.status();
    const bool is_base = spec.value() == GroupBySpec::Base(schema_);
    Result<std::unique_ptr<Table>> table =
        ReadTableFile(directory + "/" + filename);
    // A file that reads back intact must still hold what its spec stores:
    // a CRC covers the bytes, not their meaning.
    const Status fits =
        table.ok() ? CheckTableFitsSpec(schema_, spec.value(), *table.value(),
                                        StatusCode::kCorruption)
                   : table.status();
    if (!fits.ok()) {
      // A view is derived data: when the caller opts in, skip it (it can be
      // re-materialized from the base) rather than failing the whole cube.
      // The base table itself is irreplaceable and always a hard error.
      if (!is_base && skipped_views != nullptr) {
        skipped_views->push_back(spec_text);
        continue;
      }
      return fits;
    }

    if (is_base) {
      Result<MaterializedView*> base =
          AttachFactTable(std::move(table.value()));
      if (!base.ok()) return base.status();
    } else {
      if (base_view_ == nullptr) {
        return Status::InvalidArgument(
            "manifest must list the base table first");
      }
      Result<Table*> registered =
          catalog_.Register(std::move(table.value()));
      if (!registered.ok()) return registered.status();
      auto view = std::make_unique<MaterializedView>(schema_, spec.value(),
                                                     registered.value());
      view->set_clustered(clustered);
      view->ComputeStats(schema_);
      views_.Add(std::move(view));
    }
  }
  if (base_view_ == nullptr) {
    return Status::InvalidArgument("manifest lists no base table");
  }
  return Status::Ok();
}

IoStats Engine::ConsumeIoStats() {
  IoStats stats = disk_.stats();
  disk_.ResetStats();
  return stats;
}

void Engine::FlushCaches() {
  if (pool_ != nullptr) pool_->Clear();
}

}  // namespace starshare
