#include "index/bitmap_join_index.h"

#include <algorithm>

namespace starshare {

BitmapJoinIndex::BitmapJoinIndex(const Table& table, size_t key_col,
                                 uint32_t num_values,
                                 const std::vector<int32_t>& value_map,
                                 DiskModel& disk)
    : key_col_(key_col), num_values_(num_values), num_rows_(table.num_rows()) {
  SS_CHECK(key_col < table.num_key_columns());
  rid_lists_.resize(num_values);
  const KeyColumn& keys = table.key_column(key_col);
  // Index construction scans the table once.
  table.ScanPages(disk, [&](uint64_t begin, uint64_t end) {
    keys.ForEach(begin, end, [&](uint64_t row, int32_t key) {
      SS_CHECK_MSG(key >= 0 && static_cast<size_t>(key) < value_map.size(),
                   "key %d outside the value map (%zu entries)", key,
                   value_map.size());
      const int32_t v = value_map[static_cast<size_t>(key)];
      SS_CHECK_MSG(v >= 0 && static_cast<uint32_t>(v) < num_values,
                   "mapped value %d out of index domain [0,%u)", v,
                   num_values);
      rid_lists_[static_cast<size_t>(v)].push_back(
          static_cast<uint32_t>(row));
    });
  });
  disk.WritePages(TotalPages());
}

BitmapJoinIndex::BitmapJoinIndex(size_t key_col, uint64_t num_rows,
                                 std::vector<std::vector<uint32_t>> rid_lists,
                                 DiskModel& disk)
    : key_col_(key_col),
      num_values_(static_cast<uint32_t>(rid_lists.size())),
      num_rows_(num_rows),
      rid_lists_(std::move(rid_lists)) {
  disk.WritePages(TotalPages());
}

void BitmapJoinIndex::SpliceRows(
    uint64_t num_rows, uint64_t first, std::span<const uint32_t> new_rid,
    std::span<const std::pair<uint32_t, uint32_t>> added, DiskModel& disk) {
  num_rows_ = num_rows;
  if (!new_rid.empty()) {
    for (std::vector<uint32_t>& list : rid_lists_) {
      for (auto it = std::lower_bound(list.begin(), list.end(), first);
           it != list.end(); ++it) {
        *it = new_rid[*it - first];
      }
    }
  }
  // Per member, merge its inserted RIDs into the shifted list from the
  // back (the two sets are disjoint).
  for (size_t begin = 0, end = 0; begin < added.size(); begin = end) {
    const uint32_t member = added[begin].first;
    SS_CHECK_MSG(member < num_values_,
                 "member %u out of index domain [0,%u)", member, num_values_);
    while (end < added.size() && added[end].first == member) ++end;
    std::vector<uint32_t>& list = rid_lists_[member];
    size_t old_left = list.size();
    size_t new_left = end - begin;
    list.resize(old_left + new_left);
    for (size_t out = list.size(); new_left > 0;) {
      const uint32_t rid = added[begin + new_left - 1].second;
      if (old_left > 0 && list[old_left - 1] > rid) {
        list[--out] = list[--old_left];
      } else {
        list[--out] = rid;
        --new_left;
      }
    }
  }
  disk.WritePages(TotalPages());
}

Bitmap BitmapJoinIndex::Lookup(std::span<const int32_t> values,
                               DiskModel& disk) const {
  Bitmap out(num_rows_);
  uint64_t pages = 0;
  for (int32_t v : values) {
    if (v < 0 || static_cast<uint32_t>(v) >= num_values_) continue;
    const auto& list = rid_lists_[static_cast<size_t>(v)];
    pages += PagesForBytes(SegmentBytes(list.size()));
    for (uint32_t row : list) out.Set(row);
  }
  disk.ReadIndexPages(pages);
  return out;
}

uint64_t BitmapJoinIndex::PagesForValue(int32_t value) const {
  if (value < 0 || static_cast<uint32_t>(value) >= num_values_) return 0;
  return PagesForBytes(
      SegmentBytes(rid_lists_[static_cast<size_t>(value)].size()));
}

uint64_t BitmapJoinIndex::TotalPages() const {
  uint64_t total_bytes = 0;
  for (const auto& list : rid_lists_) total_bytes += SegmentBytes(list.size());
  return PagesForBytes(total_bytes);
}

std::vector<int32_t> BitmapJoinIndex::IdentityMap(uint32_t num_values) {
  std::vector<int32_t> map(num_values);
  for (uint32_t i = 0; i < num_values; ++i) map[i] = static_cast<int32_t>(i);
  return map;
}

}  // namespace starshare
