// Dimension hierarchies (paper §2: e.g. Date -> Month -> Quarter -> Year;
// §7.2: A -> A' -> A'' with three members at the top level).
//
// Levels are numbered from the leaves: level 0 is the base (finest) level
// whose member ids appear in the fact table; level L-1 is the top level; the
// pseudo-level L ("ALL") has a single implicit member and means "dimension
// aggregated away". Member ids at every level are dense in [0, cardinality).
//
// Member naming follows the paper's convention: for a dimension named "A"
// with 3 levels, top-level members are "A1".."A3", middle "AA1".., base
// "AAA1".. — so the paper's queries ("A''.A1.CHILDREN", "FILTER(D.DD1)")
// parse directly against a generated schema.

#ifndef STARSHARE_SCHEMA_HIERARCHY_H_
#define STARSHARE_SCHEMA_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace starshare {

class Hierarchy {
 public:
  // Builds a balanced hierarchy for dimension `dim_name`: `top_cardinality`
  // members at the top level, and every member of level l+1 having
  // `fanouts[l]` children at level l. fanouts.size() == num_levels - 1.
  // Member m of level l has parent m / fanouts[l] at level l+1.
  Hierarchy(std::string dim_name, uint32_t top_cardinality,
            std::vector<uint32_t> fanouts);

  const std::string& dim_name() const { return dim_name_; }

  // Number of real levels (excluding ALL).
  int num_levels() const { return static_cast<int>(cardinalities_.size()); }
  // The ALL pseudo-level index.
  int all_level() const { return num_levels(); }

  // Members at `level`; ALL has cardinality 1.
  uint32_t cardinality(int level) const;

  // Parent of `member` (level -> level+1). Mapping into ALL returns 0.
  int32_t Parent(int level, int32_t member) const;

  // Maps `member` from `from_level` up to `to_level` (>= from_level).
  int32_t MapUp(int from_level, int to_level, int32_t member) const;

  // Children of `member` at `level`, i.e. the members of level-1 whose
  // parent is `member`. Requires level >= 1. (Children are contiguous.)
  std::vector<int32_t> Children(int level, int32_t member) const;

  // The descendants of `member` (at `from_level`) at `to_level` <=
  // from_level, as the id range [first, second): a balanced hierarchy
  // numbers every member's descendants contiguously. from_level ==
  // to_level gives [member, member + 1); from_level == ALL gives every
  // member of to_level.
  std::pair<int32_t, int32_t> DescendantRange(int from_level, int32_t member,
                                              int to_level) const;

  // DescendantRange as a list of ids.
  std::vector<int32_t> DescendantsAtLevel(int from_level, int32_t member,
                                          int to_level) const;

  // Optional human naming (for realistic schemas like Time: Month ->
  // Quarter -> Year with members "Jan 1991", "Qtr1", ...). Without custom
  // names the synthetic scheme above applies.
  void SetLevelNames(std::vector<std::string> names);  // size = num_levels
  void SetMemberNames(int level, std::vector<std::string> names);

  // Level display name: the custom name if set, else the primed form.
  std::string LevelName(int level) const;
  // Always the primed form "A", "A'", "A''", "A(ALL)" (spec-string syntax).
  std::string PrimedLevelName(int level) const;

  // Resolves a level by primed form, custom name, or "ALL".
  Result<int> FindLevel(const std::string& name) const;

  // Member display name, e.g. ("A", level 2, 0) -> "A1"; level 1 -> "AA1";
  // custom names win when set.
  std::string MemberName(int level, int32_t member) const;

  // Resolves a member name at a specific level.
  Result<int32_t> FindMemberAtLevel(int level, const std::string& name) const;

  // Resolves a member name across all levels (custom names first, then the
  // synthetic scheme where repeated dim-name copies encode the level).
  // Returns (level, member).
  Result<std::pair<int, int32_t>> FindMember(const std::string& name) const;

 private:
  std::string dim_name_;
  std::vector<uint32_t> cardinalities_;  // per level, index 0 = base
  std::vector<uint32_t> fanouts_;        // fanouts_[l]: level l+1 -> level l
  std::vector<std::string> level_names_;                // optional
  std::vector<std::vector<std::string>> member_names_;  // optional, per level
};

}  // namespace starshare

#endif  // STARSHARE_SCHEMA_HIERARCHY_H_
