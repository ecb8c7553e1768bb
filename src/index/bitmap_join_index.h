// Star-join bitmap index (paper §3.2, [OQ97]).
//
// One index covers one *hierarchy level* of one dimension of one table: for
// every member at that level, the index records the positions of the tuples
// under it (the paper's "join bitmap index mapping Adim's A' attribute to
// tuples of F"). Internally each member's position set is an RID list;
// Lookup materializes the OR of the requested members' sets as a Bitmap
// over the table's tuple positions.
//
// I/O charging models the segment a real system would store per member:
// the *smaller* of the compressed RID list (4 bytes/position) and the plain
// bitmap (1 bit/row) — dense members ship as bitmaps, sparse members as RID
// lists.

#ifndef STARSHARE_INDEX_BITMAP_JOIN_INDEX_H_
#define STARSHARE_INDEX_BITMAP_JOIN_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "index/bitmap.h"
#include "storage/disk_model.h"
#include "storage/table.h"

namespace starshare {

class BitmapJoinIndex {
 public:
  // Builds the index over `table`'s key column `key_col`. Stored keys are
  // translated through `value_map` (stored key id -> indexed member id in
  // [0, num_values)); pass an identity map to index the stored level
  // itself. Build cost (one scan + segment writes) is charged to `disk`.
  BitmapJoinIndex(const Table& table, size_t key_col, uint32_t num_values,
                  const std::vector<int32_t>& value_map, DiskModel& disk);

  // Adopts prebuilt RID lists (used when several levels' indexes are built
  // from one shared scan — see MaterializedView::BuildIndex). Charges only
  // the segment writes.
  BitmapJoinIndex(size_t key_col, uint64_t num_rows,
                  std::vector<std::vector<uint32_t>> rid_lists,
                  DiskModel& disk);

  BitmapJoinIndex(const BitmapJoinIndex&) = delete;
  BitmapJoinIndex& operator=(const BitmapJoinIndex&) = delete;
  BitmapJoinIndex(BitmapJoinIndex&&) = default;

  // Follows rows inserted into the indexed table, which now has `num_rows`
  // rows: RIDs below `first` stay, every RID r >= first becomes
  // new_rid[r - first] (ascending in r), and each (member, RID) in `added`
  // (sorted) joins its member's list at its sorted place. The lists then
  // equal a build over the new table; the segment writes are charged as a
  // build charges them.
  void SpliceRows(uint64_t num_rows, uint64_t first,
                  std::span<const uint32_t> new_rid,
                  std::span<const std::pair<uint32_t, uint32_t>> added,
                  DiskModel& disk);

  size_t key_col() const { return key_col_; }
  uint32_t num_values() const { return num_values_; }
  uint64_t num_rows() const { return num_rows_; }

  // OR of the bitmaps for `values`; charges the index segments read.
  // Values outside [0, num_values) are ignored (empty bitmap contribution).
  Bitmap Lookup(std::span<const int32_t> values, DiskModel& disk) const;

  // The RID list of member `value` in [0, num_values): its rows' positions,
  // ascending.
  std::span<const uint32_t> Rids(int32_t value) const {
    return rid_lists_[static_cast<size_t>(value)];
  }

  // Pages occupied by the segment of a single member (what one Lookup of
  // that member charges; used by the cost model).
  uint64_t PagesForValue(int32_t value) const;

  // Total index footprint in pages.
  uint64_t TotalPages() const;

  // Identity map for indexing a column's own values.
  static std::vector<int32_t> IdentityMap(uint32_t num_values);

 private:
  uint64_t SegmentBytes(size_t list_size) const {
    // Smaller of an RID list and a plain bitmap, plus a small header.
    return 8 + std::min<uint64_t>(4 * list_size, (num_rows_ + 7) / 8);
  }

  size_t key_col_;
  uint32_t num_values_;
  uint64_t num_rows_;
  std::vector<std::vector<uint32_t>> rid_lists_;
};

}  // namespace starshare

#endif  // STARSHARE_INDEX_BITMAP_JOIN_INDEX_H_
