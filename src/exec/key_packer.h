// Packs a group-by key (one member id per retained dimension, at the
// target's levels) into a single uint64 for the aggregation hash table.
// Bit widths come from level cardinalities; the packer checks the total
// fits in 63 bits (so the packed key never collides with the hash map's
// empty sentinel).

#ifndef STARSHARE_EXEC_KEY_PACKER_H_
#define STARSHARE_EXEC_KEY_PACKER_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "schema/groupby_spec.h"
#include "schema/star_schema.h"

namespace starshare {

class KeyPacker {
 public:
  KeyPacker(const StarSchema& schema, const GroupBySpec& target);

  size_t num_keys() const { return shifts_.size(); }
  const std::vector<size_t>& retained_dims() const { return retained_dims_; }

  // `members[i]` is the member id (at the target level) of retained
  // dimension i.
  uint64_t Pack(const int32_t* members) const {
    uint64_t key = 0;
    for (size_t i = 0; i < shifts_.size(); ++i) {
      key |= PackField(i, members[i]);
    }
    return key;
  }

  // The bits field i contributes to a packed key when it holds `member`.
  // ORing PackField over all fields is exactly Pack — the dense translation
  // arrays of the vectorized engine (exec/dim_translator.h) precompute these
  // per stored member so the hot loop is one load per dimension.
  uint64_t PackField(size_t i, int32_t member) const {
    SS_DCHECK(static_cast<uint64_t>(member) <= masks_[i]);
    return static_cast<uint64_t>(static_cast<uint32_t>(member)) << shifts_[i];
  }

  // Member id field i holds in a packed key: the inverse of PackField.
  int32_t Field(uint64_t key, size_t i) const {
    return static_cast<int32_t>((key >> shifts_[i]) & masks_[i]);
  }

  std::vector<int32_t> Unpack(uint64_t key) const {
    std::vector<int32_t> out(shifts_.size());
    for (size_t i = 0; i < shifts_.size(); ++i) out[i] = Field(key, i);
    return out;
  }

 private:
  std::vector<size_t> retained_dims_;
  std::vector<uint32_t> shifts_;
  std::vector<uint64_t> masks_;
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_KEY_PACKER_H_
