#include "schema/hierarchy.h"

#include <utility>

#include "common/str_util.h"

namespace starshare {

Hierarchy::Hierarchy(std::string dim_name, uint32_t top_cardinality,
                     std::vector<uint32_t> fanouts)
    : dim_name_(std::move(dim_name)), fanouts_(std::move(fanouts)) {
  SS_CHECK(top_cardinality > 0);
  const int levels = static_cast<int>(fanouts_.size()) + 1;
  cardinalities_.resize(levels);
  cardinalities_[levels - 1] = top_cardinality;
  for (int l = levels - 2; l >= 0; --l) {
    SS_CHECK(fanouts_[l] > 0);
    cardinalities_[l] = cardinalities_[l + 1] * fanouts_[l];
  }
}

uint32_t Hierarchy::cardinality(int level) const {
  if (level == all_level()) return 1;
  SS_CHECK_MSG(level >= 0 && level < num_levels(), "level %d of %s", level,
               dim_name_.c_str());
  return cardinalities_[level];
}

int32_t Hierarchy::Parent(int level, int32_t member) const {
  SS_DCHECK(level >= 0 && level <= num_levels());
  if (level >= num_levels() - 1) return 0;  // into top-as-only or ALL
  SS_DCHECK(member >= 0 &&
            static_cast<uint32_t>(member) < cardinalities_[level]);
  return member / static_cast<int32_t>(fanouts_[level]);
}

int32_t Hierarchy::MapUp(int from_level, int to_level, int32_t member) const {
  SS_DCHECK(to_level >= from_level);
  if (to_level >= all_level()) return 0;
  int32_t m = member;
  for (int l = from_level; l < to_level; ++l) {
    m = m / static_cast<int32_t>(fanouts_[l]);
  }
  return m;
}

std::vector<int32_t> Hierarchy::Children(int level, int32_t member) const {
  SS_CHECK(level >= 1 && level <= num_levels());
  if (level == all_level()) {
    std::vector<int32_t> all(cardinality(num_levels() - 1));
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int32_t>(i);
    return all;
  }
  const uint32_t fan = fanouts_[level - 1];
  std::vector<int32_t> kids(fan);
  for (uint32_t i = 0; i < fan; ++i) {
    kids[i] = member * static_cast<int32_t>(fan) + static_cast<int32_t>(i);
  }
  return kids;
}

std::pair<int32_t, int32_t> Hierarchy::DescendantRange(int from_level,
                                                      int32_t member,
                                                      int to_level) const {
  SS_CHECK(to_level >= 0 && to_level <= from_level);
  if (from_level == all_level()) {
    return {0, static_cast<int32_t>(cardinality(to_level))};
  }
  SS_DCHECK(member >= 0 &&
            static_cast<uint32_t>(member) < cardinality(from_level));
  int64_t lo = member;
  int64_t hi = member + 1;
  for (int l = from_level - 1; l >= to_level; --l) {
    lo *= fanouts_[l];
    hi *= fanouts_[l];
  }
  return {static_cast<int32_t>(lo), static_cast<int32_t>(hi)};
}

std::vector<int32_t> Hierarchy::DescendantsAtLevel(int from_level,
                                                   int32_t member,
                                                   int to_level) const {
  const auto [lo, hi] = DescendantRange(from_level, member, to_level);
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(hi - lo));
  for (int32_t m = lo; m < hi; ++m) out.push_back(m);
  return out;
}

void Hierarchy::SetLevelNames(std::vector<std::string> names) {
  SS_CHECK(static_cast<int>(names.size()) == num_levels());
  level_names_ = std::move(names);
}

void Hierarchy::SetMemberNames(int level, std::vector<std::string> names) {
  SS_CHECK(level >= 0 && level < num_levels());
  SS_CHECK_MSG(names.size() == cardinality(level),
               "level %s needs %u member names, got %zu",
               PrimedLevelName(level).c_str(), cardinality(level),
               names.size());
  if (member_names_.empty()) {
    member_names_.resize(static_cast<size_t>(num_levels()));
  }
  member_names_[static_cast<size_t>(level)] = std::move(names);
}

std::string Hierarchy::PrimedLevelName(int level) const {
  if (level == all_level()) return dim_name_ + "(ALL)";
  SS_CHECK(level >= 0 && level < num_levels());
  std::string out = dim_name_;
  for (int i = 0; i < level; ++i) out += '\'';
  return out;
}

std::string Hierarchy::LevelName(int level) const {
  if (level >= 0 && level < num_levels() && !level_names_.empty()) {
    return level_names_[static_cast<size_t>(level)];
  }
  return PrimedLevelName(level);
}

Result<int> Hierarchy::FindLevel(const std::string& name) const {
  for (int l = 0; l <= num_levels(); ++l) {
    if (name == PrimedLevelName(l)) return l;
  }
  if (!level_names_.empty()) {
    for (int l = 0; l < num_levels(); ++l) {
      if (name == level_names_[static_cast<size_t>(l)]) return l;
    }
  }
  if (name == "ALL") return all_level();
  return Status::NotFound(StrFormat("no level '%s' in dimension %s",
                                    name.c_str(), dim_name_.c_str()));
}

std::string Hierarchy::MemberName(int level, int32_t member) const {
  SS_CHECK(level >= 0 && level <= num_levels());
  if (level == all_level()) return dim_name_ + ".ALL";
  if (!member_names_.empty() &&
      !member_names_[static_cast<size_t>(level)].empty()) {
    return member_names_[static_cast<size_t>(level)]
                        [static_cast<size_t>(member)];
  }
  std::string out;
  const int copies = num_levels() - level;
  for (int i = 0; i < copies; ++i) out += dim_name_;
  out += std::to_string(member + 1);
  return out;
}

Result<int32_t> Hierarchy::FindMemberAtLevel(int level,
                                             const std::string& name) const {
  if (!member_names_.empty() && level >= 0 && level < num_levels() &&
      !member_names_[static_cast<size_t>(level)].empty()) {
    const auto& names = member_names_[static_cast<size_t>(level)];
    for (size_t m = 0; m < names.size(); ++m) {
      if (names[m] == name) return static_cast<int32_t>(m);
    }
    return Status::NotFound(StrFormat("no member '%s' at level %s",
                                      name.c_str(),
                                      LevelName(level).c_str()));
  }
  const int copies = num_levels() - level;
  std::string prefix;
  for (int i = 0; i < copies; ++i) prefix += dim_name_;
  if (!StartsWith(name, prefix)) {
    return Status::NotFound(StrFormat("member '%s' is not at level %s",
                                      name.c_str(),
                                      LevelName(level).c_str()));
  }
  const std::string digits = name.substr(prefix.size());
  if (digits.empty()) {
    return Status::NotFound("member name has no ordinal: " + name);
  }
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status::NotFound("bad member ordinal in: " + name);
    }
  }
  const long ordinal = std::stol(digits);
  if (ordinal < 1 || static_cast<uint32_t>(ordinal) > cardinality(level)) {
    return Status::NotFound(StrFormat("member '%s' out of range at level %s",
                                      name.c_str(),
                                      LevelName(level).c_str()));
  }
  return static_cast<int32_t>(ordinal - 1);
}

Result<std::pair<int, int32_t>> Hierarchy::FindMember(
    const std::string& name) const {
  // The number of leading dim-name copies encodes the level: more copies =
  // deeper (finer) level. Try deepest-prefix matches first so "AA1" resolves
  // at the middle level even though "A" is also a prefix.
  for (int level = 0; level < num_levels(); ++level) {
    Result<int32_t> member = FindMemberAtLevel(level, name);
    if (member.ok()) {
      // Reject if a deeper level would also match with a longer prefix:
      // impossible here because prefix length decreases with level, so the
      // first (deepest) match wins.
      return std::make_pair(level, member.value());
    }
  }
  if (name == dim_name_ + ".ALL" || name == "ALL") {
    return std::make_pair(all_level(), 0);
  }
  return Status::NotFound(StrFormat("no member '%s' in dimension %s",
                                    name.c_str(), dim_name_.c_str()));
}

}  // namespace starshare
