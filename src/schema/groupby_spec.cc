#include "schema/groupby_spec.h"

#include <algorithm>

#include "common/str_util.h"

namespace starshare {

GroupBySpec GroupBySpec::Base(const StarSchema& schema) {
  return GroupBySpec(std::vector<int>(schema.num_dims(), 0));
}

Result<GroupBySpec> GroupBySpec::Parse(const std::string& text,
                                       const StarSchema& schema) {
  std::vector<int> levels(schema.num_dims(), -1);
  if (text == "LL") {
    return Base(schema);
  }
  if (text == "()") {  // grand total: every dimension at ALL
    for (size_t d = 0; d < schema.num_dims(); ++d) {
      levels[d] = schema.dim(d).all_level();
    }
    return GroupBySpec(std::move(levels));
  }
  size_t pos = 0;
  while (pos < text.size()) {
    if (text[pos] == ' ') {
      ++pos;
      continue;
    }
    // Longest dimension-name match at `pos`.
    size_t best_dim = SIZE_MAX;
    size_t best_len = 0;
    for (size_t d = 0; d < schema.num_dims(); ++d) {
      const std::string& dname = schema.dim(d).dim_name();
      if (dname.size() > best_len &&
          text.compare(pos, dname.size(), dname) == 0) {
        best_dim = d;
        best_len = dname.size();
      }
    }
    if (best_dim == SIZE_MAX) {
      return Status::InvalidArgument(
          StrFormat("cannot parse group-by spec '%s' at position %zu",
                    text.c_str(), pos));
    }
    if (levels[best_dim] != -1) {
      return Status::InvalidArgument("dimension repeated in spec: " + text);
    }
    pos += best_len;
    int level = 0;
    while (pos < text.size() && text[pos] == '\'') {
      ++level;
      ++pos;
    }
    if (level >= schema.dim(best_dim).all_level()) {
      return Status::InvalidArgument(
          StrFormat("level %d too deep for dimension %s", level,
                    schema.dim(best_dim).dim_name().c_str()));
    }
    levels[best_dim] = level;
  }
  for (size_t d = 0; d < levels.size(); ++d) {
    if (levels[d] == -1) levels[d] = schema.dim(d).all_level();
  }
  return GroupBySpec(std::move(levels));
}

bool GroupBySpec::CanAnswer(const GroupBySpec& target) const {
  SS_CHECK(levels_.size() == target.levels_.size());
  for (size_t d = 0; d < levels_.size(); ++d) {
    if (levels_[d] > target.levels_[d]) return false;
  }
  return true;
}

GroupBySpec GroupBySpec::LeastCommonAncestor(const GroupBySpec& other) const {
  SS_CHECK(levels_.size() == other.levels_.size());
  std::vector<int> out(levels_.size());
  for (size_t d = 0; d < levels_.size(); ++d) {
    out[d] = std::max(levels_[d], other.levels_[d]);
  }
  return GroupBySpec(std::move(out));
}

std::vector<size_t> GroupBySpec::RetainedDims(const StarSchema& schema) const {
  SS_CHECK(levels_.size() == schema.num_dims());
  std::vector<size_t> out;
  for (size_t d = 0; d < levels_.size(); ++d) {
    if (levels_[d] < schema.dim(d).all_level()) out.push_back(d);
  }
  return out;
}

std::vector<std::string> GroupBySpec::KeyColumnNames(
    const StarSchema& schema) const {
  std::vector<std::string> names;
  for (size_t d : RetainedDims(schema)) {
    names.push_back(schema.dim(d).LevelName(levels_[d]));
  }
  return names;
}

uint64_t GroupBySpec::MaxCells(const StarSchema& schema) const {
  uint64_t cells = 1;
  for (size_t d = 0; d < levels_.size(); ++d) {
    cells *= schema.dim(d).cardinality(levels_[d]);
  }
  return cells;
}

int GroupBySpec::TotalLevel() const {
  int total = 0;
  for (int l : levels_) total += l;
  return total;
}

std::string GroupBySpec::ToString(const StarSchema& schema) const {
  std::string out;
  for (size_t d = 0; d < levels_.size(); ++d) {
    if (levels_[d] >= schema.dim(d).all_level()) continue;
    out += schema.dim(d).PrimedLevelName(levels_[d]);
  }
  return out.empty() ? "()" : out;
}

}  // namespace starshare
