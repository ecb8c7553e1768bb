// The one shared-class execution path. Every way the engine evaluates a
// query class — the §3.1/§3.2/§3.3 shared operators, serial or
// morsel-parallel, single-query execution, the Engine's fact-table
// fallback — builds a SharedClassRequest and runs it here. The request is
// executed as a lowered physical operator chain (plan/lowering.h):
//
//   Aggregate <- [Route] <- [BitmapFilter] <- [StarJoinFilter] <- source
//
// where the source is a ScanSourceOp (§3.1/§3.3), a ProbeSourceOp over the
// union bitmap's positions (§3.2), or — for a CUBE/ROLLUP rollup class — a
// DerivedSourceOp re-batching a finished sibling aggregate's groups with
// zero modeled I/O. Parallelism is a property of the
// driver, not of the operators: the pass driver (pass_driver.h) pulls one
// chain over the whole input on the calling thread, or, with an engaged
// policy, the same chain per morsel on worker DiskModels, merging match
// buffers in morsel order. Both ways produce
// bit-identical results and exactly equal IoStats at any thread count and
// any batch size.

#ifndef STARSHARE_EXEC_OPERATORS_CLASS_PIPELINE_H_
#define STARSHARE_EXEC_OPERATORS_CLASS_PIPELINE_H_

#include <vector>

#include "common/status.h"
#include "cube/materialized_view.h"
#include "exec/memory_budget.h"
#include "exec/operators/star_join_filter.h"
#include "exec/spill.h"
#include "parallel/policy.h"
#include "plan/lowering.h"
#include "plan/physical_plan.h"
#include "query/query.h"
#include "query/result.h"
#include "storage/disk_model.h"

namespace starshare {

// Per-class outcome: `statuses[i]` pairs with `results[i]`, hash members
// first, then index members, each in request order. A member with an error
// status produced no result, but the other members' results are still
// valid: sharing couples the queries' I/O, not their fates.
struct SharedOutcome {
  std::vector<QueryResult> results;
  std::vector<Status> statuses;
};

// One shared-class execution request. `hash_queries` must be empty when
// `probe` is set (§3.2 has no scan side). When `phys`/`nodes` are null the
// pipeline lowers a throwaway tree internally; callers that want the
// executed tree (Executor, Engine) lower it first and pass both.
struct SharedClassRequest {
  const StarSchema* schema = nullptr;
  std::vector<const DimensionalQuery*> hash_queries;
  std::vector<const DimensionalQuery*> index_queries;
  const MaterializedView* view = nullptr;
  DiskModel* disk = nullptr;
  ParallelPolicy policy;
  // True runs §3.2 (union-bitmap probe); false runs the shared scan
  // (§3.1 pure-hash or §3.3 hybrid, depending on index_queries).
  bool probe = false;
  // True re-batches `view`'s (in-memory, derived) table through a
  // DerivedSourceOp instead of scanning it: nothing is charged to `disk`,
  // since the producer's scan already paid for the fact pages. Derived
  // classes are hash-only (`probe` false, `index_queries` empty) and their
  // members carry no predicates — the producer already applied them.
  bool derived = false;
  PhysicalPlan* phys = nullptr;
  const LoweredClassNodes* nodes = nullptr;
  // When set, each live member is granted budget->total / n_live bytes of
  // aggregation memory and spills past it (exec/spill.h, runs under
  // spill.scratch_dir). A denied grant or failed spill costs exactly that
  // member (kResourceExhausted); null or an unbounded budget keeps the
  // legacy in-memory path byte-for-byte.
  const MemoryBudget* budget = nullptr;
  SpillConfig spill;
};

// Executes the class with graceful per-member degradation. A fault hitting
// one member during its private phase (binding at "exec.bind_query",
// bitmap construction at "exec.build_bitmap" / "disk.read_index", keyed by
// query id) fails only that member; the survivors run the shared pass. A
// device fault during the shared pass itself ("disk.read_seq" /
// "disk.read_rand") fails every surviving member. The call returns an
// error Status only for malformed input: no members, or more than
// kMaxClassQueries hash members (index members, for a probe).
Result<SharedOutcome> ExecuteSharedClass(const SharedClassRequest& req);

// Fires the per-member bind fault site ("exec.bind_query"), if armed for
// this query.
Status MemberBindFault(const DimensionalQuery& query);

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_CLASS_PIPELINE_H_
