// ContinuousScanRun: one circular shared scan (§3.1 hash method) that
// queries can attach to mid-flight. The table is driven segment by segment
// on a fixed page-aligned grid (parallel/scan_cursor.h); at every segment
// boundary the admission controller may attach new members at the current
// cursor, and a member completes when the cursor comes back around to its
// attachment point ("completion on wraparound").
//
// Bit-identity invariant. The serial engine folds each query's aggregation
// in ascending row order [0, N). A member attached at cursor `a` sees the
// rows out of that order — [a, N) first, then [0, a) after the wrap — so
// the run BUFFERS its matches from rows [a, N) and folds its matches from
// rows [0, a) directly as they arrive; at completion the aggregation holds
// exactly the fold of [0, a), the buffered [a, N) matches are replayed in
// segment order, and the total fold sequence is [0, a)·[a, N) — the serial
// order, hence bit-identical results at any thread count, batch size and
// attachment point. A member attached at cursor 0 buffers nothing and
// folds every segment directly (the plain serial order).
//
// I/O. Each segment is one pass of the pass driver
// (exec/operators/pass_driver.h) over a fresh ScanSourceOp per chain, with
// the same high-water page charging as a batch scan, so a full-revolution
// member charges exactly the batch scan's pages; a late member's
// revolution additionally re-reads the prefix [0, a) — wraparound I/O is
// real modeled I/O, charged again.
//
// Threading: the whole object is confined to the controller thread.
// Within a segment, rows may be produced morsel-parallel on the engine's
// pool (the driver's ordered merge); the fold always happens on the
// controller.

#ifndef STARSHARE_SERVER_SCAN_RUNNER_H_
#define STARSHARE_SERVER_SCAN_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "cube/materialized_view.h"
#include "exec/bound_query.h"
#include "exec/operators/operator.h"
#include "exec/operators/star_join_filter.h"
#include "parallel/policy.h"
#include "parallel/scan_cursor.h"
#include "query/result.h"
#include "schema/star_schema.h"
#include "storage/disk_model.h"

namespace starshare {

class ContinuousScanRun {
 public:
  // `segment_rows` == 0 picks the cursor's default grid. Discards any
  // stale latched fault on `disk`, mirroring the batch class pipeline.
  ContinuousScanRun(const StarSchema& schema, const MaterializedView& view,
                    DiskModel& disk, const ParallelPolicy& policy,
                    uint64_t segment_rows);

  ContinuousScanRun(const ContinuousScanRun&) = delete;
  ContinuousScanRun& operator=(const ContinuousScanRun&) = delete;

  // Called for each member leaving the run: on completion (OK result), on
  // a device fault (every current member fails; the caller owns fallback),
  // or on detach/shutdown. `attach_cursor` is where the member joined.
  using DoneFn = std::function<void(uint64_t token, Result<QueryResult> result,
                                    uint64_t attach_cursor)>;

  // Joins `query` at the current cursor. Fails (without attaching) when the
  // per-member bind fault site fires — the caller then routes the query to
  // its fallback, exactly like a batch member failing bind. `query` must
  // outlive the run; the caller keeps membership under kMaxClassQueries.
  Status Attach(const DimensionalQuery* query, uint64_t token);

  // Drops a member before completion (client disconnect); its partial
  // state is discarded without calling `on_done`. False if unknown.
  bool Detach(uint64_t token);

  // Drives one segment of the grid, folding / buffering matches per the
  // invariant above, then reports members that completed this boundary (or
  // every member, if the device faulted) through `on_done`.
  void DriveSegment(const DoneFn& on_done);

  // Fails every remaining member with `status` (server shutdown).
  void FailAll(const Status& status, const DoneFn& on_done);

  bool empty() const { return members_.empty(); }
  size_t num_members() const { return members_.size(); }
  uint64_t cursor() const { return cursor_.cursor(); }
  uint64_t num_rows() const { return cursor_.num_rows(); }
  uint64_t revolutions() const { return cursor_.revolutions(); }
  const MaterializedView& view() const { return view_; }

  // The queries currently riding the scan (admission uses these for the
  // marginal shared-CPU term of the join-or-open decision).
  std::vector<const DimensionalQuery*> queries() const;

 private:
  struct Member {
    const DimensionalQuery* query = nullptr;
    uint64_t token = 0;
    uint64_t attach_cursor = 0;
    uint64_t rows_seen = 0;
    // Matches from pre-wrap rows [attach_cursor, N), replayed at completion.
    QueryMatchBatch buffered;
  };

  void RebuildFilters();
  // Routes one segment's per-member match slots: buffer or fold.
  void DispatchMatches(uint64_t seg_begin,
                       const std::vector<QueryMatchBatch>& matches);

  const StarSchema& schema_;
  const MaterializedView& view_;
  DiskModel& disk_;
  ParallelPolicy policy_;
  CircularScanCursor cursor_;

  // Index-aligned: bound_[i] is members_[i]'s aggregation state. BoundQuery
  // is move-only, so membership changes rebuild the vectors by moving
  // survivors instead of erasing in place.
  std::vector<BoundQuery> bound_;
  std::vector<Member> members_;
  std::vector<SharedDimFilter> filters_;
};

}  // namespace starshare

#endif  // STARSHARE_SERVER_SCAN_RUNNER_H_
