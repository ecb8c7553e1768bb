// Engine — StarShare's public API.
//
// Typical use (see examples/quickstart.cpp):
//
//   StarSchema schema = StarSchema::PaperTestSchema();
//   Engine engine(std::move(schema));
//   engine.LoadFactTable({.num_rows = 500'000});
//   engine.MaterializeView("A'B'C'D");
//   engine.BuildIndexes("A'B'C'D", {"A", "B", "C"});
//   auto queries = engine.ParseMdx("{A''.A1.CHILDREN} on COLUMNS ... ");
//   GlobalPlan plan =
//       engine.Optimize(queries.value(), OptimizerKind::kGlobalGreedy);
//   auto results = engine.Execute(plan);
//
// The engine owns all storage (catalog), the materialized-view set, the
// disk model / buffer pool, and the cost model. Execution charges page
// touches to the disk model; ConsumeIoStats() reads and resets the counters
// so callers can attribute I/O to individual steps.

#ifndef STARSHARE_CORE_ENGINE_H_
#define STARSHARE_CORE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "cube/lattice.h"
#include "cube/view_builder.h"
#include "cube/view_set.h"
#include "exec/executor.h"
#include "exec/result_cache.h"
#include "mdx/binder.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/physical_plan.h"
#include "schema/data_generator.h"
#include "schema/star_schema.h"
#include "server/query_handle.h"
#include "server/server_config.h"
#include "server/session.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"

namespace starshare {

class QueryServer;

// Default for EngineConfig::compressed_pages: true unless the
// STARSHARE_UNCOMPRESSED environment variable is set to a non-empty,
// non-"0" value.
bool DefaultCompressedPages();

struct EngineConfig {
  DiskTimings disk_timings;
  CpuCosts cpu_costs;
  // 0 = run cold, as the paper does (it flushed all buffers before tests).
  uint64_t buffer_pool_pages = 0;
  // Entries in the query result cache (0 = disabled). The cache serves
  // repeated identical component queries without touching storage and is
  // invalidated whenever facts are appended.
  size_t result_cache_entries = 0;
  // Worker threads for shared-class execution and batch view builds.
  // 1 (the default) keeps everything on the calling thread — exactly the
  // pre-parallel engine, so the 1998 cost-model benchmarks are untouched.
  // Values > 1 spawn a ThreadPool; results and charged I/O stay
  // bit-identical to serial at any setting (see DESIGN.md "Parallel
  // execution model"). 0 means ThreadPool::HardwareThreads().
  size_t parallelism = 1;
  // Rows per morsel for parallel passes, rounded up to whole pages so no
  // page is charged twice (0 = 16K rows, rounded the same way; see
  // ParallelPolicy::morsel_rows).
  uint64_t morsel_rows = 0;
  // Rows per batch for the shared operators, view builds and the query
  // server's scans. Any batch size produces bit-identical results and
  // charges identical modeled I/O (see DESIGN.md "Vectorized execution
  // model"); the knob exists for benchmarking and verification.
  BatchConfig batch;
  // Aggregation memory budget in bytes for query execution and view builds
  // (0 = unbounded, the default). When set, each shared class's budget is
  // split evenly across its live members; a member whose aggregation state
  // would exceed its share spills sorted runs to scratch files and merges
  // them at finish — results stay bit-identical to the unbudgeted run, and
  // modeled IoStats are unchanged (spill I/O is real scratch-file I/O,
  // reported separately as spill_runs/spill_bytes). A member that cannot
  // proceed even by spilling fails with kResourceExhausted and degrades
  // through the fact-table fallback alone.
  uint64_t memory_budget_bytes = 0;
  // Directory for spill run files (empty = $TMPDIR, else /tmp). Files are
  // uniquely named per query and removed on success and error paths alike.
  std::string scratch_dir;
  // Records an execution trace (span tree with per-node IoStats deltas and
  // row counts; see obs/trace.h) for every Execute* / MaterializeView(s) /
  // AppendFacts call, retrievable via Engine::last_trace(). Off by default:
  // with tracing off every span site costs one thread-local load and a
  // branch (<2% on the scan benches — asserted by bench_vectorized_scan).
  // Engine::ExecuteTraced records a trace regardless of this knob.
  bool trace = false;
  // Compressed physical layout (DESIGN.md §14), on by default: every
  // registered table bit-packs its key columns (frame-of-reference +
  // ceil(log2(domain)) bits per value) and the modeled page geometry —
  // rows_per_page(), num_pages(), every charged page — shrinks in exact
  // proportion (the paper's 24-byte fact tuple drops to ~11 bytes, ~2.4x
  // fewer pages). Packing is lossless: results are bit-identical to the
  // uncompressed layout at any parallelism x batch x memory budget, and
  // the cost model prices the same geometry the scans charge, so EXPLAIN
  // ANALYZE estimated == actual either way. It does not reach spill runs,
  // which always bit-pack their keys (exec/spill.h). false restores the
  // historical 4k + 8m byte layout exactly. The default is true; setting
  // STARSHARE_UNCOMPRESSED=1 in the environment flips the default to
  // false (verify.sh uses this to run the whole tier-1 suite on the raw
  // layout) — explicit assignments always win over the env.
  bool compressed_pages = DefaultCompressedPages();
  // Knobs for the continuous query server (Engine::server(); DESIGN.md §13):
  // admission optimizer, scan segment granularity, queue depth, late
  // attachment. The server itself starts lazily on first use.
  ServerConfig server;
};

// An Execute run plus the trace recorded for it (EXPLAIN ANALYZE).
struct TracedExecution {
  std::vector<ExecutedQuery> results;
  obs::Trace trace;
};

// One ExecuteCube run: the scheduled lattice and, aligned with its steps,
// every level's result. results[i].query points at lattice.steps[i].query,
// so the pair stays self-describing after the call returns.
struct CubeExecution {
  LatticePlan lattice;
  std::vector<ExecutedQuery> results;

  bool all_ok() const {
    for (const ExecutedQuery& r : results) {
      if (!r.ok()) return false;
    }
    return true;
  }
};

class Engine {
 public:
  explicit Engine(StarSchema schema, EngineConfig config = EngineConfig());

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Stops the query server first (failing in-flight queries with a typed
  // kShuttingDown outcome), then tears down the engine. Outstanding
  // QueryHandles stay valid past destruction.
  ~Engine();

  const StarSchema& schema() const { return schema_; }
  const CostModel& cost_model() const { return cost_; }
  const ViewSet& views() const { return views_; }
  const Catalog& catalog() const { return catalog_; }
  DiskModel& disk() { return disk_; }

  // Runtime form of EngineConfig::parallelism: resizes (or drops) the
  // worker pool and hands the executor and the view builder the new
  // policy. Safe between queries; must not be called while an Execute or
  // MaterializeViews is in flight.
  void set_parallelism(size_t parallelism);
  size_t parallelism() const { return parallelism_; }

  // Runtime form of EngineConfig::batch's batch size. Safe between
  // queries, like set_parallelism.
  void set_batch_rows(size_t batch_rows) {
    config_.batch.batch_rows = batch_rows;
    set_parallelism(parallelism_);  // rebuild the policy with the new size
  }

  // Runtime form of EngineConfig::memory_budget_bytes. Safe between
  // queries, like set_parallelism; 0 restores unbounded execution.
  void set_memory_budget_bytes(uint64_t bytes);
  uint64_t memory_budget_bytes() const {
    return config_.memory_budget_bytes;
  }

  // ---- Data -------------------------------------------------------------

  // Generates the synthetic base fact table and registers it as the base
  // view (the paper's LL). Must be called (or AttachFactTable) before
  // anything else.
  MaterializedView* LoadFactTable(const DataGeneratorConfig& config);

  // Registers caller-provided base data instead (key columns must be
  // base-level member ids per dimension, in schema order and named by
  // GroupBySpec::KeyColumnNames, and one measure column per schema measure;
  // anything else is kInvalidArgument).
  Result<MaterializedView*> AttachFactTable(std::unique_ptr<Table> table);

  MaterializedView* base_view() const { return base_view_; }

  // Appends newly generated facts (config.num_rows, config.seed) to the
  // base table and incrementally refreshes every materialized view from
  // (old view + delta) — SUM views are self-maintainable, so the base is
  // never rescanned (paper intro: "maintaining precomputed group-bys").
  // Statistics and indexes follow the inserted rows in place
  // (MaterializedView::SpliceRows) and end up equal to a rebuild. Fails
  // with kFailedPrecondition while the query server runs (started and not
  // stopped): its controller thread reads what the append edits.
  Status AppendFacts(const DataGeneratorConfig& config);

  // Same, with caller-provided delta rows (base-level member ids per
  // dimension, in schema order; validated like AttachFactTable's table).
  Status AppendFactTable(std::unique_ptr<Table> delta);

  // ---- Materialized group-bys -------------------------------------------

  // Materializes the group-by written in spec syntax ("A'B''C''D"),
  // aggregating from the smallest existing view that can produce it.
  // `clustered` selects the physical layout: false (default) emits the
  // paper-era heap/hash order, true emits an index-organized table sorted
  // by key (cheap contiguous probes for prefix predicates).
  Result<MaterializedView*> MaterializeView(const std::string& spec_text,
                                            bool clustered = false);
  Result<MaterializedView*> MaterializeView(const GroupBySpec& spec,
                                            bool clustered = false);

  // Materializes several group-bys with ONE shared scan of the smallest
  // view able to produce all of them (batch cube construction). Returns
  // the views in spec order; fails atomically before any work if a spec is
  // malformed, already materialized, or unanswerable.
  Result<std::vector<MaterializedView*>> MaterializeViews(
      const std::vector<std::string>& spec_texts, bool clustered = false);

  // Builds bitmap join indexes on `dims` (dimension names) of a view.
  Status BuildIndexes(const std::string& spec_text,
                      const std::vector<std::string>& dims);

  // Drops a materialized view (its table, indexes and statistics). The
  // base table cannot be dropped. Plans holding the view become invalid.
  Status DropView(const std::string& spec_text);

  // ---- Queries ------------------------------------------------------------

  // Parses one MDX expression and expands it into its component queries.
  Result<std::vector<DimensionalQuery>> ParseMdx(const std::string& text,
                                                 int first_id = 1) const;

  // Parses one MDX expression carrying a trailing WITH CUBE / WITH ROLLUP
  // clause into the cube request it names: each axis group contributes one
  // cubed (dimension, level) pair, restricting members and FILTER slicers
  // land in the shared predicate (mdx/binder.h documents the mapping).
  Result<CubeQuery> ParseCube(const std::string& text) const;

  // Produces a global plan with the chosen algorithm. The returned plan
  // holds pointers into `queries`, which must outlive it.
  GlobalPlan Optimize(const std::vector<DimensionalQuery>& queries,
                      OptimizerKind kind) const;
  GlobalPlan Optimize(const std::vector<const DimensionalQuery*>& queries,
                      OptimizerKind kind) const;

  // Executes a plan with the §3 shared operators, degrading gracefully:
  // when a member of a shared class fails (e.g. an injected device fault),
  // the remaining members still produce their results, and the failed
  // query is re-planned as a single-query hash star join against the base
  // fact table. Only if that fallback also fails does the entry come back
  // with an error Status. Degradations are recorded in
  // last_execution_report(). The process never aborts on a query failure.
  std::vector<ExecutedQuery> Execute(const GlobalPlan& plan);

  // EXPLAIN ANALYZE: like Execute, but records and returns the span tree of
  // the run (per-class and per-member spans with IoStats deltas, row counts
  // and estimated-vs-actual cost; obs/trace.h documents the determinism
  // contract). Works whether or not EngineConfig::trace is set.
  TracedExecution ExecuteTraced(const GlobalPlan& plan);

  // Optimize + execute under one trace: the optimizer's phase spans appear
  // under "engine.optimize" and the execution under "engine.execute".
  TracedExecution ExecuteTraced(const std::vector<DimensionalQuery>& queries,
                                OptimizerKind kind);

  // The trace of the most recent traced call (ExecuteTraced always; every
  // Execute* / MaterializeView(s) / AppendFacts when EngineConfig::trace is
  // set). Empty when nothing has been traced.
  const obs::Trace& last_trace() const { return last_trace_; }

  // The physical plan tree the most recent Execute / ExecuteCached /
  // ExecuteNaive / ExecuteUnshared call actually ran — every node annotated
  // with its cost estimate and the I/O, rows and status it observed. Empty
  // before the first execution.
  const PhysicalPlan& last_physical_plan() const {
    return last_physical_plan_;
  }

  // EXPLAIN ANALYZE: estimated-vs-actual rendering of last_physical_plan()
  // under this engine's disk timings.
  std::string ExplainAnalyze() const {
    return last_physical_plan_.ExplainAnalyze(config_.disk_timings);
  }

  // The same executed tree as JSON (nested children, io/mem/counters per
  // node) for tooling.
  std::string ExplainAnalyzeJson() const {
    return last_physical_plan_.ExplainAnalyzeJson(config_.disk_timings);
  }

  // What degraded (and what recovered) during the most recent Execute /
  // ExecuteCached / ExecuteNaive call. clean() when nothing did.
  const ExecutionReport& last_execution_report() const { return report_; }

  // Cache-aware execution: answers what it can from the result cache, then
  // plans (with `kind`) and executes only the misses as one shared batch.
  // Results are returned in input order. Requires result_cache_entries > 0.
  std::vector<ExecutedQuery> ExecuteCached(
      const std::vector<DimensionalQuery>& queries, OptimizerKind kind);

  // The cache, or nullptr when disabled.
  const ResultCache* result_cache() const { return result_cache_.get(); }

  // Executes a WITH CUBE / WITH ROLLUP request as one shared submission:
  // plans the group-by lattice with smallest-parent scheduling
  // (cube/lattice.h), runs the base levels as an ordinary related-query
  // batch under `kind` — so the fact pages are read exactly once for the
  // whole lattice — then rolls every remaining level up from its scheduled
  // parent's in-memory groups through the derived pipeline, which charges
  // no fact I/O at all. Per-level failures degrade through the same
  // fact-table fallback as Execute (see last_execution_report()). Component
  // ids are first_id, first_id + 1, ... in lattice step order, and the
  // executed tree — rollup chains reading their producers via DAG edges —
  // lands in last_physical_plan() for EXPLAIN ANALYZE.
  Result<CubeExecution> ExecuteCube(const CubeQuery& cube, OptimizerKind kind,
                                    int first_id = 1);

  // The no-sharing baseline: each query separately on its locally optimal
  // (view, method) — what a data source that ignores query relationships
  // would do.
  std::vector<ExecutedQuery> ExecuteNaive(
      const std::vector<DimensionalQuery>& queries);

  // Executes `plan`'s members one at a time with no shared operators (the
  // "queries running separately" bars of the paper's Figures 10-12).
  std::vector<ExecutedQuery> ExecuteUnshared(const GlobalPlan& plan);

  // ---- Query server -------------------------------------------------------

  // The continuous shared-scan query server (DESIGN.md §13), started lazily
  // on first use with EngineConfig::server. While it is processing queries,
  // submit through it instead of calling the synchronous Execute* methods —
  // the server's controller thread owns the engine internals.
  QueryServer& server();

  // Opens a new client session on the server.
  Session OpenSession();

  // Asynchronously submits one query on the default session and returns a
  // futures-style handle; Await blocks for the outcome. Sugar over
  // server().Submit / QueryHandle::Await.
  QueryHandle Submit(const DimensionalQuery& query);
  const QueryOutcome& Await(QueryHandle& handle) { return handle.Await(); }

  // Stops the server (idempotent; no-op when it never started). In-flight
  // and pending queries complete with kShuttingDown.
  void StopServer();

  // ---- Persistence --------------------------------------------------------

  // Writes the base table, every materialized view and a manifest into
  // `directory` (created if missing). Indexes are not persisted.
  Status SaveCube(const std::string& directory) const;

  // Loads a cube saved by SaveCube into this engine (which must not have a
  // fact table yet). Statistics are recomputed; rebuild indexes with
  // BuildIndexes as needed. Table files are read with bounded
  // retry-with-backoff, and a corrupt file surfaces as kCorruption, never
  // an abort. A file that reads back intact but does not fit its spec (key
  // or measure column count, a key column name, or a key outside its
  // stored level's domain) is corrupt too. When `skipped_views` is
  // non-null, a corrupt or unreadable *view* file (derived, rebuildable
  // data) is skipped and its spec appended there instead of failing the
  // load; the base table must always load.
  Status LoadCube(const std::string& directory,
                  std::vector<std::string>* skipped_views = nullptr);

  // ---- Accounting ---------------------------------------------------------

  // Returns the I/O counters accumulated since the last call and resets
  // them (the buffer pool, if any, is not cleared).
  IoStats ConsumeIoStats();

  // Clears the buffer pool ("flush caches").
  void FlushCaches();

  double ModeledIoMs(const IoStats& stats) const {
    return config_.disk_timings.ModeledIoMs(stats);
  }

 private:
  // Runs the plan, then applies the fact-table fallback to failed entries
  // and records events in report_ (which it resets first). The executed
  // tree is stored into last_physical_plan_.
  std::vector<ExecutedQuery> RunPlanWithFallback(const GlobalPlan& plan);

  // Same, but records the executed tree into `phys` instead of replacing
  // last_physical_plan_ — lets ExecuteCached nest the miss execution under
  // its CacheLookup node.
  std::vector<ExecutedQuery> RunPlanWithFallbackInto(const GlobalPlan& plan,
                                                     PhysicalPlan& phys);

  // Runs `fn` under a tracer rooted at a span named `root`, stores the
  // trace in last_trace_, and returns fn's result.
  template <typename Fn>
  auto Traced(const char* root, Fn&& fn) {
    obs::Tracer tracer(&disk_);
    auto out = [&] {
      obs::Tracer::Scope bind(&tracer);
      obs::ScopedSpan span(root);
      return fn();
    }();
    last_trace_ = tracer.Take();
    return out;
  }

  // Applies the fallback to one failed entry, appending its report event
  // and a Fallback node (with its single-query chain) to `phys`.
  void RecoverQuery(ExecutedQuery& entry, PhysicalPlan& phys);

  // The executor's ParallelPolicy points at thread_pool_; both are updated
  // together by set_parallelism.
  StarSchema schema_;
  EngineConfig config_;
  Catalog catalog_;
  ViewSet views_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<ResultCache> result_cache_;
  DiskModel disk_;
  CostModel cost_;
  MemoryBudget memory_budget_;
  ViewBuilder builder_;
  Executor executor_;
  std::unique_ptr<ThreadPool> thread_pool_;
  size_t parallelism_ = 1;
  MaterializedView* base_view_ = nullptr;
  ExecutionReport report_;
  obs::Trace last_trace_;
  PhysicalPlan last_physical_plan_;

  // The query server references the members above, so it is declared last:
  // ~Engine stops it before anything it points at dies.
  std::mutex server_mu_;  // guards lazy construction of server_
  std::unique_ptr<QueryServer> server_;
};

}  // namespace starshare

#endif  // STARSHARE_CORE_ENGINE_H_
