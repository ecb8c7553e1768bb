#include "exec/operators/class_pipeline.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/str_util.h"
#include "exec/bound_query.h"
#include "exec/operators/aggregate_sink.h"
#include "exec/operators/bitmap_filter.h"
#include "exec/operators/derived_source.h"
#include "exec/operators/pass_driver.h"
#include "exec/operators/probe_source.h"
#include "exec/operators/scan_source.h"
#include "exec/operators/star_join_filter.h"
#include "index/bitmap.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace starshare {
namespace {

// A member that survived its private phase.
struct LiveMember {
  const DimensionalQuery* query = nullptr;
  size_t out_slot = 0;  // index into SharedOutcome's results and statuses
  MemoryGrant grant;    // unbounded unless the request carries a budget
  // Index members only: the candidate bitmap and the predicates left to
  // check on each candidate row.
  Bitmap bitmap;
  std::vector<const DimPredicate*> residual;
};

}  // namespace

Status MemberBindFault(const DimensionalQuery& query) {
  if (FaultHit("exec.bind_query", query.id())) {
    return Status::Internal(
        StrFormat("injected execution fault binding query %d", query.id()));
  }
  return Status::Ok();
}

Result<SharedOutcome> ExecuteSharedClass(const SharedClassRequest& req) {
  const StarSchema& schema = *req.schema;
  const MaterializedView& view = *req.view;
  DiskModel& disk = *req.disk;
  const std::vector<const DimensionalQuery*>& hash_queries = req.hash_queries;
  const std::vector<const DimensionalQuery*>& index_queries =
      req.index_queries;
  SS_DCHECK(!req.probe || hash_queries.empty());
  SS_DCHECK(!req.derived || (!req.probe && index_queries.empty()));

  if (req.probe) {
    if (index_queries.empty()) {
      return Status::InvalidArgument("shared index star join with no queries");
    }
    if (index_queries.size() > kMaxClassQueries) {
      return Status::InvalidArgument(
          StrFormat("shared index star join: %zu members exceed the class "
                    "limit of %zu",
                    index_queries.size(), kMaxClassQueries));
    }
  } else {
    if (hash_queries.empty() && index_queries.empty()) {
      return Status::InvalidArgument(
          "shared hybrid star join with no queries");
    }
    if (hash_queries.size() > kMaxClassQueries) {
      // The shared-scan pass masks carry one bit per hash member; a larger
      // class is the planner's mistake, reported as a typed error so callers
      // with a degradation path (Engine's fact-table fallback) can recover
      // instead of aborting. Executor::ExecuteClass chunks oversized classes
      // before ever reaching this pipeline.
      return Status::InvalidArgument(StrFormat(
          "shared hybrid star join: %zu hash members exceed the class limit "
          "of %zu",
          hash_queries.size(), kMaxClassQueries));
    }
  }
  const size_t n_hash = hash_queries.size();
  SharedOutcome out;
  out.results.resize(n_hash + index_queries.size());
  out.statuses.resize(n_hash + index_queries.size());

  disk.TakeFault();  // discard faults latched by earlier, unrelated work

  // Per-member private phases, on the calling thread and the parent
  // DiskModel. A member failing here drops out; the shared pass runs with
  // the survivors.
  std::vector<LiveMember> live;  // hash members, then index members
  for (size_t i = 0; i < hash_queries.size(); ++i) {
    Status s = MemberBindFault(*hash_queries[i]);
    if (!s.ok()) {
      out.statuses[i] = std::move(s);
      continue;
    }
    live.emplace_back();
    live.back().query = hash_queries[i];
    live.back().out_slot = i;
  }
  size_t n_live_hash = live.size();
  for (size_t i = 0; i < index_queries.size(); ++i) {
    LiveMember member;
    member.query = index_queries[i];
    member.out_slot = n_hash + i;
    Status s = MemberBindFault(*member.query);
    if (s.ok()) {
      s = BuildMemberBitmap(schema, *member.query, view, disk, &member.bitmap,
                            &member.residual);
    }
    if (!s.ok()) {
      out.statuses[member.out_slot] = std::move(s);
      continue;
    }
    live.push_back(std::move(member));
  }

  // Memory grants: an even split of the budget across the members still
  // live. A denied grant ("budget.grant" fault) demotes exactly that member
  // — before any shared work — leaving its slot kResourceExhausted for the
  // engine's fallback ladder. Grants are ceilings the sink enforces by
  // spilling, so a zero share is legal (every batch spills).
  if (req.budget != nullptr) {
    const uint64_t consumers = live.size();
    size_t kept = 0;
    size_t kept_hash = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      Result<MemoryGrant> grant =
          req.budget->Grant(live[i].query->id(), consumers);
      if (!grant.ok()) {
        out.statuses[live[i].out_slot] = grant.status();
        continue;
      }
      live[i].grant = *grant;
      if (i < n_live_hash) ++kept_hash;
      if (kept != i) live[kept] = std::move(live[i]);
      ++kept;
    }
    live.resize(kept);
    n_live_hash = kept_hash;
  }
  if (live.empty()) return out;  // nothing left

  std::vector<BoundQuery> bound;  // one per live member, in slot order
  bound.reserve(live.size());
  std::vector<const DimensionalQuery*> live_hash;
  std::vector<Bitmap> index_bitmaps;
  std::vector<ResidualFilter> index_residuals;
  for (size_t i = 0; i < live.size(); ++i) {
    bound.emplace_back(schema, *live[i].query, view);
    if (i < n_live_hash) {
      live_hash.push_back(live[i].query);
    } else {
      index_bitmaps.push_back(std::move(live[i].bitmap));
      index_residuals.emplace_back(schema, view, live[i].residual);
    }
  }
  const size_t n_live = bound.size();

  // §3.2 step 1: OR the per-member result bitmaps; the union's positions
  // are the one shared probe stream.
  std::vector<uint64_t> positions;
  if (req.probe) {
    Bitmap unioned = index_bitmaps[0];
    for (size_t i = 1; i < index_bitmaps.size(); ++i) {
      unioned.OrWith(index_bitmaps[i]);
    }
    positions = unioned.ToPositions();
  }

  // Standalone callers (tests, benches) get a throwaway lowered tree; the
  // Executor/Engine pass the session's tree instead.
  PhysicalPlan local_plan;
  PhysicalPlan* phys = req.phys;
  const LoweredClassNodes* nodes = req.nodes;
  LoweredClassNodes local_nodes;
  if (phys == nullptr || nodes == nullptr) {
    if (req.derived) {
      local_nodes = LowerDerivedClass(local_plan, kNoPhysNode, view.name(),
                                      hash_queries.size(), /*query_id=*/-1,
                                      /*input=*/kNoPhysNode,
                                      /*rollup_cpu_est_ms=*/-1.0,
                                      /*member_est_ms=*/nullptr);
    } else {
      local_nodes = LowerSharedClass(local_plan, kNoPhysNode, view.name(),
                                     hash_queries.size(),
                                     index_queries.size(), req.probe,
                                     /*query_id=*/-1, /*cls=*/nullptr);
    }
    phys = &local_plan;
    nodes = &local_nodes;
  }

  const Table& table = view.table();
  const size_t batch_rows = req.policy.batch.EffectiveBatchRows();

  // Shared dimension filters (scan path). Built inside the StarJoinFilter
  // node's scope below so the dim_filters span nests under it.
  std::vector<SharedDimFilter> filters;

  // Probe position ranges are snapped forward to page changes, so no page
  // is probed (or charged) by two morsels and the snapped ranges cover
  // every position exactly once.
  const uint64_t rpp = table.rows_per_page();
  const auto snap = [&](uint64_t i) {
    while (i > 0 && i < positions.size() &&
           positions[i] / rpp == positions[i - 1] / rpp) {
      ++i;
    }
    return i;
  };
  // Builds one operator chain over units [begin, end) — rows, or the
  // probe's positions — on DiskModel `d` and pulls it dry, its filters
  // appending each batch's matches to `out` (exec/operators/pass_driver.h).
  const auto run = [&](DiskModel& d, uint64_t begin, uint64_t end,
                       std::vector<QueryMatchBatch>& out,
                       const auto& on_batch) {
    std::optional<ScanSourceOp> scan_src;
    std::optional<ProbeSourceOp> probe_src;
    std::optional<DerivedSourceOp> derived_src;
    BatchOperator* chain = nullptr;
    if (req.probe) {
      begin = snap(begin);
      end = snap(end);
      if (begin >= end) return;
      chain = &probe_src.emplace(table, d, positions.data() + begin,
                                 end - begin);
    } else if (req.derived) {
      chain = &derived_src.emplace(begin, end, batch_rows);
    } else {
      chain = &scan_src.emplace(table, d, begin, end, batch_rows);
    }
    std::optional<StarJoinFilterOp> sjf_op;
    if (!req.probe) {
      sjf_op.emplace(chain, d, filters, bound, n_live_hash);
      chain = &*sjf_op;
    }
    std::optional<BitmapFilterOp> bmf_op;
    if (!index_bitmaps.empty()) {
      bmf_op.emplace(chain, index_bitmaps, index_residuals, bound,
                     n_live_hash, batch_rows);
      chain = &*bmf_op;
    }
    ClassBatch batch;
    batch.matches = &out;
    chain->Open();
    while (chain->NextBatch(batch)) on_batch(batch.begin);
    chain->Close();
  };

  AggregateSink sink(bound);
  for (size_t i = 0; i < n_live; ++i) {
    sink.SetGrant(i, live[i].grant, req.spill, live[i].query->id());
  }

  // High-water of the per-member match buffers feeding the sink, summed
  // across slots at each consume point (logical bytes, not capacities).
  uint64_t match_peak_bytes = 0;
  const auto note_match_bytes = [&](const std::vector<QueryMatchBatch>& m) {
    uint64_t now = 0;
    for (const QueryMatchBatch& slot : m) {
      now += (slot.keys.size() + slot.values.size()) * 8;
    }
    match_peak_bytes = std::max(match_peak_bytes, now);
  };

  NodeExec agg(*phys, nodes->aggregate, disk);
  {
    std::optional<NodeExec> route;
    if (nodes->route != kNoPhysNode) {
      route.emplace(*phys, nodes->route, disk);
    }
    std::optional<NodeExec> bmf;
    if (nodes->bitmap_filter != kNoPhysNode) {
      bmf.emplace(*phys, nodes->bitmap_filter, disk);
    }
    std::optional<NodeExec> sjf;
    if (!req.probe) {
      sjf.emplace(*phys, nodes->star_join_filter, disk);
      filters = BuildSharedFilters(schema, live_hash, view);
      if (req.derived) {
        // Predicate-free rollup members build no filters (every derived row
        // passes); count the pass under its own taxonomy.
        static obs::Counter& derived_passes =
            obs::Metrics().counter("exec.derived_passes");
        derived_passes.Add();
      } else {
        static obs::Counter& scan_passes =
            obs::Metrics().counter("exec.scan_passes");
        scan_passes.Add();
      }
    } else {
      static obs::Counter& probe_passes =
          obs::Metrics().counter("exec.probe_passes");
      probe_passes.Add();
    }
    const uint64_t num_units = req.probe ? positions.size() : table.num_rows();
    NodeExec source(*phys, nodes->source, disk);
    source.AddRows(num_units);
    source.AddCounter("members", bound.size());

    // One tally per consumed batch (serial) or morsel (parallel).
    DrivePass(req.policy, disk, num_units, rpp, n_live, run,
              [&](const std::vector<QueryMatchBatch>& out, uint64_t) {
                source.AddBatches(1);
                note_match_bytes(out);
                sink.Consume(out);
              });

    // Seal each filter node's memory gauge before its scope closes: the
    // shared pass masks, the per-member candidate bitmaps, and (probe path)
    // the union's position array.
    if (sjf) {
      MemStats sjf_mem;
      for (const SharedDimFilter& filter : filters) {
        sjf_mem.batch_bytes += filter.masks.size() * sizeof(uint32_t);
      }
      sjf->RecordMem(sjf_mem);
    }
    if (bmf) {
      MemStats bmf_mem;
      for (const Bitmap& bitmap : index_bitmaps) {
        bmf_mem.bitmap_bytes += bitmap.SizeBytes();
      }
      bmf->RecordMem(bmf_mem);
    }
    if (req.probe) {
      MemStats src_mem;
      src_mem.batch_bytes = positions.size() * sizeof(uint64_t);
      source.RecordMem(src_mem);
    }
  }

  {
    MemStats agg_mem;
    agg_mem.match_bytes = match_peak_bytes;
    agg_mem.hash_bytes = sink.agg_table_bytes() + sink.staged_peak_bytes();
    agg.RecordMem(agg_mem);
  }

  // A device fault during the shared pass takes down every member that
  // depended on it — but only those; members failed above keep their own
  // (more precise) statuses.
  const Status pass_fault = disk.TakeFault();
  if (!pass_fault.ok()) {
    for (const LiveMember& member : live) {
      out.statuses[member.out_slot] = pass_fault;
    }
    agg.SetStatus(pass_fault);
    return out;
  }

  // Per-slot finish: a budgeted slot merges its spill runs here. A slot
  // whose spill failed surfaces kResourceExhausted for exactly that member;
  // its siblings finish normally.
  uint64_t result_rows = 0;
  for (size_t i = 0; i < n_live; ++i) {
    Result<QueryResult> result = sink.FinishSlot(i);
    if (!result.ok()) {
      out.statuses[live[i].out_slot] = result.status();
      continue;
    }
    result_rows += result->num_rows();
    out.results[live[i].out_slot] = std::move(*result);
  }
  agg.AddRows(result_rows);
  // The final aggregation tables (and any spill) exist only after the
  // per-slot finish; fold them into the gauge and surface spill volume.
  {
    MemStats final_mem;
    final_mem.hash_bytes = sink.agg_table_bytes() + sink.staged_peak_bytes();
    agg.RecordMem(final_mem);
  }
  if (sink.spill_runs() > 0) {
    agg.AddNodeOnlyCounter("spill_runs", sink.spill_runs());
    agg.AddNodeOnlyCounter("spill_bytes", sink.spill_bytes());
  }
  return out;
}

}  // namespace starshare
