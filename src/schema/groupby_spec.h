// A point in the group-by lattice: one hierarchy level per dimension
// (including the ALL pseudo-level for "aggregated away"). Used both as the
// target of a query ("compute group-by A'B''C''D") and as the description of
// a materialized view's granularity.

#ifndef STARSHARE_SCHEMA_GROUPBY_SPEC_H_
#define STARSHARE_SCHEMA_GROUPBY_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "schema/star_schema.h"

namespace starshare {

class GroupBySpec {
 public:
  GroupBySpec() = default;
  explicit GroupBySpec(std::vector<int> levels) : levels_(std::move(levels)) {}

  // The base data (level 0 everywhere) — the paper's "lowest level LL".
  static GroupBySpec Base(const StarSchema& schema);

  // Parses "A'B''CD" style names: each dimension name (longest match, in any
  // order but each at most once) followed by prime marks for the level;
  // omitted dimensions are ALL. "LL" parses to Base.
  static Result<GroupBySpec> Parse(const std::string& text,
                                   const StarSchema& schema);

  size_t num_dims() const { return levels_.size(); }
  int level(size_t d) const { return levels_[d]; }
  void set_level(size_t d, int level) { levels_[d] = level; }
  const std::vector<int>& levels() const { return levels_; }

  // True if a table at this granularity can be aggregated into `target`:
  // this is finer-or-equal on every dimension (lattice order).
  bool CanAnswer(const GroupBySpec& target) const;

  // The finest spec that is coarser-or-equal to both (join in the lattice):
  // per-dimension max of levels. Both operands must have equal num_dims.
  GroupBySpec LeastCommonAncestor(const GroupBySpec& other) const;

  // Dimensions retained (level < ALL), in schema order. A view's table has
  // one key column per retained dimension, in this order.
  std::vector<size_t> RetainedDims(const StarSchema& schema) const;

  // The key column names a table at this granularity carries: the stored
  // level's name (Hierarchy::LevelName) of each retained dimension, in
  // RetainedDims order. Every table the engine writes is named this way,
  // and the load boundary checks incoming tables against it.
  std::vector<std::string> KeyColumnNames(const StarSchema& schema) const;

  // Product of level cardinalities over retained dimensions = the maximum
  // number of cells (rows) a table at this granularity can have.
  uint64_t MaxCells(const StarSchema& schema) const;

  // Sum of levels — the "GroupbyLevel" the paper sorts queries by (lower =
  // finer = larger result).
  int TotalLevel() const;

  // "A'B''CD" display form ("()" when every dimension is ALL).
  std::string ToString(const StarSchema& schema) const;

  bool operator==(const GroupBySpec& other) const = default;

 private:
  std::vector<int> levels_;
};

// Hash support so specs can key unordered containers.
struct GroupBySpecHash {
  size_t operator()(const GroupBySpec& spec) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (int l : spec.levels()) {
      h ^= static_cast<size_t>(l) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

}  // namespace starshare

#endif  // STARSHARE_SCHEMA_GROUPBY_SPEC_H_
