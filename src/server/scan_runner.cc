#include "server/scan_runner.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "exec/operators/class_pipeline.h"
#include "exec/operators/star_join_filter.h"
#include "obs/metrics.h"
#include "parallel/morsel.h"
#include "parallel/morsel_pipeline.h"
#include "parallel/parallel_context.h"

namespace starshare {
namespace {

// One morsel's per-member match streams, ascending row order (the same
// buffer the batch class pipeline merges).
struct MorselMatches {
  std::vector<QueryMatchBatch> slots;
};

}  // namespace

ContinuousScanRun::ContinuousScanRun(const StarSchema& schema,
                                     const MaterializedView& view,
                                     DiskModel& disk,
                                     const ParallelPolicy& policy,
                                     uint64_t segment_rows)
    : schema_(schema),
      view_(view),
      disk_(disk),
      policy_(policy),
      cursor_(view.table().num_rows(), segment_rows,
              view.table().rows_per_page()),
      scan_(view.table(), disk, 0, 0, policy.batch.EffectiveBatchRows()) {
  disk_.TakeFault();  // discard faults latched by earlier, unrelated work
}

Status ContinuousScanRun::Attach(const DimensionalQuery* query,
                                 uint64_t token) {
  SS_CHECK_MSG(members_.size() < kMaxClassQueries,
               "continuous scan already carries the class limit of %zu",
               kMaxClassQueries);
  SS_RETURN_IF_ERROR(MemberBindFault(*query));
  bound_.emplace_back(schema_, *query, view_);
  Member member;
  member.query = query;
  member.token = token;
  member.attach_cursor = cursor_.cursor();
  members_.push_back(std::move(member));
  RebuildFilters();
  return Status::Ok();
}

bool ContinuousScanRun::Detach(uint64_t token) {
  std::vector<BoundQuery> keep_bound;
  std::vector<Member> keep_members;
  bool found = false;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].token == token) {
      found = true;
      continue;
    }
    keep_bound.push_back(std::move(bound_[i]));
    keep_members.push_back(std::move(members_[i]));
  }
  if (!found) return false;
  bound_ = std::move(keep_bound);
  members_ = std::move(keep_members);
  RebuildFilters();
  return true;
}

std::vector<const DimensionalQuery*> ContinuousScanRun::queries() const {
  std::vector<const DimensionalQuery*> out;
  out.reserve(members_.size());
  for (const Member& m : members_) out.push_back(m.query);
  return out;
}

void ContinuousScanRun::RebuildFilters() {
  if (members_.empty()) {
    filters_.clear();
    return;
  }
  filters_ = BuildSharedFilters(schema_, queries(), view_);
}

void ContinuousScanRun::DispatchMatches(
    uint64_t seg_begin, const std::vector<QueryMatchBatch>& matches) {
  for (size_t i = 0; i < members_.size(); ++i) {
    const QueryMatchBatch& m = matches[i];
    if (m.size() == 0) continue;
    Member& member = members_[i];
    if (member.attach_cursor > 0 && seg_begin >= member.attach_cursor) {
      // Pre-wrap rows [attach, N): out of serial order for this member —
      // park them until the post-wrap prefix has folded.
      member.buffered.Append(m.keys.data(), m.values.data(), m.size());
    } else {
      bound_[i].AccumulateRawBatch(m.keys.data(), m.values.data(), m.size());
    }
  }
}

void ContinuousScanRun::DriveSegment(const DoneFn& on_done) {
  SS_CHECK_MSG(!members_.empty(), "DriveSegment on an empty continuous scan");
  static obs::Counter& segments = obs::Metrics().counter("server.segments");
  segments.Add();

  const CircularScanCursor::Segment seg = cursor_.Next();
  const Table& table = view_.table();
  const size_t n = members_.size();

  if (!policy_.engaged()) {
    // Serial drive: the run's one resumable scan source, repositioned on
    // this segment, under a fresh filter over the current membership.
    scan_.Reset(seg.begin, seg.end);
    StarJoinFilterOp filter(&scan_, disk_, filters_, bound_, n);
    std::vector<QueryMatchBatch> matches(n);
    ClassBatch batch;
    batch.matches = &matches;
    filter.Open();
    while (filter.NextBatch(batch)) {
      DispatchMatches(seg.begin, matches);
      for (QueryMatchBatch& m : matches) m.Clear();
    }
    filter.Close();
  } else {
    const size_t workers =
        std::min(policy_.parallelism, policy_.pool->num_threads());
    ParallelContext ctx(disk_, workers);
    MorselDispatcher dispatcher(
        seg.num_rows(), policy_.EffectiveMorselRows(table.rows_per_page()),
        /*window=*/4 * workers);
    const size_t batch_rows = policy_.batch.EffectiveBatchRows();
    RunMorselPipeline<MorselMatches>(
        policy_.pool, workers, dispatcher, ctx,
        [&](const Morsel& morsel, DiskModel& wdisk, MorselMatches& buffer) {
          // Morsel offsets are relative to the segment; both the segment
          // start and the morsel grid are page-aligned, so each page is
          // still charged by exactly one worker.
          buffer.slots.resize(n);
          ScanSourceOp scan_src(table, wdisk, seg.begin + morsel.begin,
                                seg.begin + morsel.end, batch_rows);
          StarJoinFilterOp filter(&scan_src, wdisk, filters_, bound_, n);
          std::vector<QueryMatchBatch> matches(n);
          ClassBatch batch;
          batch.matches = &matches;
          filter.Open();
          while (filter.NextBatch(batch)) {
            for (size_t qi = 0; qi < n; ++qi) {
              buffer.slots[qi].Append(matches[qi].keys.data(),
                                      matches[qi].values.data(),
                                      matches[qi].size());
              matches[qi].Clear();
            }
          }
          filter.Close();
        },
        [&](const Morsel&, const MorselMatches& buffer) {
          DispatchMatches(seg.begin, buffer.slots);
        });
    ctx.MergeIntoParent();
  }

  // A device fault during the segment takes down every member riding the
  // scan — the same all-or-nothing semantics as the batch shared pass; the
  // caller runs each member's fallback.
  const Status fault = disk_.TakeFault();
  if (!fault.ok()) {
    FailAll(fault, on_done);
    return;
  }

  for (Member& m : members_) m.rows_seen += seg.num_rows();

  bool any_done = false;
  for (const Member& m : members_) {
    if (m.rows_seen >= cursor_.num_rows()) {
      any_done = true;
      break;
    }
  }
  if (!any_done) return;

  std::vector<BoundQuery> keep_bound;
  std::vector<Member> keep_members;
  for (size_t i = 0; i < members_.size(); ++i) {
    Member& m = members_[i];
    if (m.rows_seen < cursor_.num_rows()) {
      keep_bound.push_back(std::move(bound_[i]));
      keep_members.push_back(std::move(m));
      continue;
    }
    SS_DCHECK(m.rows_seen == cursor_.num_rows());
    // Completion on wraparound: the aggregation already holds the fold of
    // [0, attach); replaying the buffered [attach, N) matches finishes the
    // serial order [0, N) exactly.
    bound_[i].AccumulateRawBatch(m.buffered.keys.data(),
                                 m.buffered.values.data(), m.buffered.size());
    on_done(m.token, bound_[i].Finish(), m.attach_cursor);
  }
  bound_ = std::move(keep_bound);
  members_ = std::move(keep_members);
  RebuildFilters();
}

void ContinuousScanRun::FailAll(const Status& status, const DoneFn& on_done) {
  for (const Member& m : members_) {
    on_done(m.token, status, m.attach_cursor);
  }
  members_.clear();
  bound_.clear();
  filters_.clear();
}

}  // namespace starshare
