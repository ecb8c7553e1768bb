#include "cube/materialized_view.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace starshare {
namespace {

size_t IndexKey(size_t dim, int level) {
  return (dim << 8) | static_cast<size_t>(level);
}

}  // namespace

MaterializedView::MaterializedView(const StarSchema& schema, GroupBySpec spec,
                                   Table* table)
    : spec_(std::move(spec)), table_(table) {
  SS_CHECK(table_ != nullptr);
  key_col_for_dim_.assign(schema.num_dims(), SIZE_MAX);
  const auto retained = spec_.RetainedDims(schema);
  SS_CHECK_MSG(retained.size() == table_->num_key_columns(),
               "view %s: %zu retained dims but table has %zu key columns",
               table_->name().c_str(), retained.size(),
               table_->num_key_columns());
  for (size_t i = 0; i < retained.size(); ++i) {
    key_col_for_dim_[retained[i]] = i;
  }
}

void MaterializedView::BuildIndex(const StarSchema& schema, size_t d,
                                  DiskModel& disk) {
  SS_CHECK_MSG(KeyColForDim(d) != SIZE_MAX,
               "cannot index dimension %s on view %s: aggregated away",
               schema.dim(d).dim_name().c_str(), name().c_str());
  const Hierarchy& h = schema.dim(d);
  const int stored = spec_.level(d);
  const uint32_t stored_card = h.cardinality(stored);

  // Levels still missing their index.
  std::vector<int> levels;
  for (int level = stored; level < h.num_levels(); ++level) {
    if (!indexes_.contains(IndexKey(d, level))) levels.push_back(level);
  }
  if (levels.empty()) return;

  // One shared scan populates every level's RID lists: per row, the stored
  // key maps up to each level through a precomputed array.
  std::vector<std::vector<int32_t>> maps;  // per level: stored key -> member
  std::vector<std::vector<std::vector<uint32_t>>> lists;  // per level
  for (int level : levels) {
    std::vector<int32_t> map(stored_card);
    for (uint32_t m = 0; m < stored_card; ++m) {
      map[m] = h.MapUp(stored, level, static_cast<int32_t>(m));
    }
    maps.push_back(std::move(map));
    lists.emplace_back(h.cardinality(level));
  }
  const KeyColumn& keys = table_->key_column(KeyColForDim(d));
  table_->ScanPages(disk, [&](uint64_t begin, uint64_t end) {
    keys.ForEach(begin, end, [&](uint64_t row, int32_t stored_key) {
      const size_t key = static_cast<size_t>(stored_key);
      for (size_t i = 0; i < levels.size(); ++i) {
        lists[i][static_cast<size_t>(maps[i][key])].push_back(
            static_cast<uint32_t>(row));
      }
    });
  });
  for (size_t i = 0; i < levels.size(); ++i) {
    indexes_.emplace(IndexKey(d, levels[i]),
                     BitmapJoinIndex(KeyColForDim(d), table_->num_rows(),
                                     std::move(lists[i]), disk));
  }
}

bool MaterializedView::HasIndexOn(size_t d) const {
  return IndexOn(d, spec_.level(d)) != nullptr;
}

const BitmapJoinIndex* MaterializedView::IndexOn(size_t d, int level) const {
  auto it = indexes_.find(IndexKey(d, level));
  return it == indexes_.end() ? nullptr : &it->second;
}

void MaterializedView::SpliceRows(const StarSchema& schema, Table* table,
                                  std::span<const uint64_t> inserted_before,
                                  DiskModel& disk) {
  // The old table may already be gone (the catalog replaced it).
  SS_CHECK(table != nullptr);
  table_ = table;
  obs::ScopedSpan span("view.splice", name());
  SS_CHECK_MSG(spec_.RetainedDims(schema).size() == table->num_key_columns(),
               "spliced table for %s has %zu key columns", name().c_str(),
               table->num_key_columns());
  SS_CHECK(inserted_before.size() <= table->num_rows());
  const uint64_t added = inserted_before.size();
  const uint64_t old_rows = table->num_rows() - added;
  span.AddRows(added);

  // Statistics: each inserted row's stored key joins its member's count.
  for (size_t d = 0; d < member_prefix_.size(); ++d) {
    std::vector<uint64_t>& prefix = member_prefix_[d];
    if (prefix.empty()) continue;
    std::vector<uint64_t> counts(prefix.size(), 0);
    for (uint64_t j = 0; j < added; ++j) {
      const int32_t key = table->key(KeyColForDim(d), inserted_before[j] + j);
      ++counts[static_cast<size_t>(key) + 1];
    }
    uint64_t below = 0;
    for (size_t m = 1; m < prefix.size(); ++m) {
      below += counts[m];
      prefix[m] += below;
    }
  }

  // Indexes. Rows before the first insertion point keep their RIDs; old
  // row r from there on moves to new_rid[r - first], that is r plus the
  // rows inserted at or before r.
  const uint64_t first = added == 0 ? old_rows : inserted_before[0];
  std::vector<uint32_t> new_rid;
  if (!indexes_.empty()) {
    new_rid.resize(old_rows - first);
    uint64_t j = 0;
    for (uint64_t r = first; r < old_rows; ++r) {
      while (j < added && inserted_before[j] <= r) ++j;
      new_rid[r - first] = static_cast<uint32_t>(r + j);
    }
  }
  for (const size_t d : IndexedDims()) {
    const Hierarchy& h = schema.dim(d);
    const int stored = spec_.level(d);
    // The rebuild's scan of the refreshed table, charged page by page.
    table->ScanPages(disk, [](uint64_t, uint64_t) {});
    for (int level = stored; level < h.num_levels(); ++level) {
      auto it = indexes_.find(IndexKey(d, level));
      if (it == indexes_.end()) continue;
      // The inserted rows as (member, RID), by member then RID.
      std::vector<std::pair<uint32_t, uint32_t>> rows;
      rows.reserve(added);
      for (uint64_t j = 0; j < added; ++j) {
        const uint64_t rid = inserted_before[j] + j;
        const int32_t member =
            h.MapUp(stored, level, table->key(KeyColForDim(d), rid));
        rows.emplace_back(static_cast<uint32_t>(member),
                          static_cast<uint32_t>(rid));
      }
      std::sort(rows.begin(), rows.end());
      it->second.SpliceRows(table->num_rows(), first, new_rid, rows, disk);
    }
  }
}

void MaterializedView::ComputeStats(const StarSchema& schema) {
  member_prefix_.assign(schema.num_dims(), {});
  for (size_t d = 0; d < schema.num_dims(); ++d) {
    const size_t col = KeyColForDim(d);
    if (col == SIZE_MAX) continue;
    std::vector<uint64_t> prefix(
        schema.dim(d).cardinality(spec_.level(d)) + 1, 0);
    const KeyColumn& keys = table_->key_column(col);
    keys.ForEach(0, keys.size(), [&](uint64_t, int32_t key) {
      ++prefix[static_cast<size_t>(key) + 1];
    });
    for (size_t m = 1; m < prefix.size(); ++m) prefix[m] += prefix[m - 1];
    member_prefix_[d] = std::move(prefix);
  }
}

uint64_t MaterializedView::RowsMatching(
    const Hierarchy& hierarchy, size_t d, int level,
    std::span<const int32_t> members) const {
  SS_CHECK_MSG(has_stats(), "ComputeStats not run on %s", name().c_str());
  SS_CHECK(d < member_prefix_.size() && !member_prefix_[d].empty());
  const int stored = StoredLevel(d);
  SS_CHECK_MSG(level >= stored, "level %d is below the stored level %d",
               level, stored);
  const std::vector<uint64_t>& prefix = member_prefix_[d];
  uint64_t rows = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    SS_DCHECK(i == 0 || members[i - 1] < members[i]);
    const auto [lo, hi] = hierarchy.DescendantRange(level, members[i], stored);
    rows += prefix[static_cast<size_t>(hi)] - prefix[static_cast<size_t>(lo)];
  }
  return rows;
}

double MaterializedView::SelectivityOf(
    const Hierarchy& hierarchy, size_t d, int level,
    std::span<const int32_t> members) const {
  const uint64_t total = table_->num_rows();
  if (total == 0) return 0;
  return static_cast<double>(RowsMatching(hierarchy, d, level, members)) /
         static_cast<double>(total);
}

std::vector<size_t> MaterializedView::IndexedDims() const {
  std::vector<size_t> dims;
  for (const auto& [key, _] : indexes_) dims.push_back(key >> 8);
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

}  // namespace starshare
