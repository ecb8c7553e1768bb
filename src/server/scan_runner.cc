#include "server/scan_runner.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "exec/operators/class_pipeline.h"
#include "exec/operators/pass_driver.h"
#include "exec/operators/scan_source.h"
#include "exec/operators/star_join_filter.h"
#include "obs/metrics.h"

namespace starshare {

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
              view.table().rows_per_page()) {
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

  const size_t batch_rows = policy_.batch.EffectiveBatchRows();
  // The pass's units are the segment's rows, counted from its start. The
  // segment and the morsel grid are both page-aligned, so each page is
  // charged by exactly one chain; a fresh source per segment starts its
  // page high-water there, so rows revisited after the wrap are charged
  // again.
  DrivePass(
      policy_, disk_, seg.num_rows(), table.rows_per_page(), n,
      [&](DiskModel& d, uint64_t begin, uint64_t end,
          std::vector<QueryMatchBatch>& out, const auto& on_batch) {
        ScanSourceOp scan(table, d, seg.begin + begin, seg.begin + end,
                          batch_rows);
        StarJoinFilterOp filter(&scan, d, filters_, bound_, n);
        ClassBatch batch;
        batch.matches = &out;
        filter.Open();
        while (filter.NextBatch(batch)) on_batch(batch.begin);
        filter.Close();
      },
      [&](const std::vector<QueryMatchBatch>& out, uint64_t) {
        DispatchMatches(seg.begin, out);
      });

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
