#include "cube/materialized_view.h"

#include <algorithm>

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

void MaterializedView::ReplaceTable(const StarSchema& schema, Table* table) {
  SS_CHECK(table != nullptr);
  const auto retained = spec_.RetainedDims(schema);
  SS_CHECK_MSG(retained.size() == table->num_key_columns(),
               "replacement table for %s has %zu key columns, want %zu",
               name().c_str(), table->num_key_columns(), retained.size());
  table_ = table;
  indexes_.clear();
  member_prefix_.clear();
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
