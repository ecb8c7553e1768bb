// Bit-packed key column storage (DESIGN.md §14).
//
// Member ids are dense int32 domains, so a key column whose values span
// [min, max] needs only width = ceil(log2(max - min + 1)) bits per value.
// KeyColumn stores values either raw (a plain int32 vector, the layout every
// table starts in) or packed: frame-of-reference deltas `value - ref` (ref =
// the minimum observed value, so zero-based domains pack with ref 0) laid
// out little-endian across 64-bit words. Packing is lossless — Get/ForEach
// return exactly the appended values in either mode — which is what makes
// the engine-wide bit-identity invariant hold.
//
// Thread-safety: all read paths (Get, ForEach, Decode, SelectInRange,
// accessors) are const and touch no mutable state, so concurrent morsel
// workers may decode the same column freely. Mutation (Append/Pack/Unpack/
// Reserve) requires external exclusion, same as std::vector.

#ifndef STARSHARE_STORAGE_PACKED_COLUMN_H_
#define STARSHARE_STORAGE_PACKED_COLUMN_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"

namespace starshare {

class KeyColumn {
 public:
  KeyColumn() = default;

  uint64_t size() const { return size_; }
  bool packed() const { return packed_; }

  // Packed-layout parameters. `bits` is the per-value width the column
  // occupies in the compressed page geometry (and in file format v4);
  // meaningful only when packed. An empty packed column is 1 bit wide.
  uint32_t bits() const { return bits_; }
  int32_t ref() const { return static_cast<int32_t>(ref_); }

  // The smallest and largest value, exact in either layout; meaningful
  // only when size() > 0.
  int32_t min() const { return static_cast<int32_t>(min_); }
  int32_t max() const { return static_cast<int32_t>(max_); }

  void Reserve(uint64_t rows);
  void Append(int32_t value);

  // Value at `row` (packed: two-word straddle extraction; the words array
  // always carries one sentinel word past the payload so the second load is
  // in bounds even for the final value).
  int32_t Get(uint64_t row) const {
    if (!packed_) return raw_[row];
    const uint64_t pos = row * bits_;
    const uint64_t off = pos & 63;
    uint64_t v = words_[pos >> 6] >> off;
    if (off + bits_ > 64) v |= words_[(pos >> 6) + 1] << (64 - off);
    return static_cast<int32_t>(ref_ + static_cast<int64_t>(v & mask_));
  }

  // Invokes fn(row, value) for each row in [begin, end), decoding
  // word-at-a-time from the packed words in the hot layout. This is the
  // general batch kernel entry point: vectorized operators hand it a batch
  // range and a lambda writing into batch-local arrays or folding directly.
  // SelectInRange is the other, for a range test over every row.
  template <typename Fn>
  void ForEach(uint64_t begin, uint64_t end, Fn&& fn) const {
    if (!packed_) {
      const int32_t* data = raw_.data();
      for (uint64_t i = begin; i < end; ++i) fn(i, data[i]);
      return;
    }
    const uint64_t bits = bits_;
    const uint64_t mask = mask_;
    const int64_t ref = ref_;
    const uint64_t* words = words_.data();
    uint64_t pos = begin * bits;
    for (uint64_t i = begin; i < end; ++i, pos += bits) {
      const uint64_t off = pos & 63;
      uint64_t v = words[pos >> 6] >> off;
      if (off + bits > 64) v |= words[(pos >> 6) + 1] << (64 - off);
      fn(i, static_cast<int32_t>(ref + static_cast<int64_t>(v & mask)));
    }
  }

  // Decodes [begin, end) into out[0 .. end-begin).
  void Decode(uint64_t begin, uint64_t end, int32_t* out) const {
    ForEach(begin, end, [&](uint64_t i, int32_t v) { out[i - begin] = v; });
  }

  // Widest packed column the vector kernel reads: a lane loads 4 bytes from
  // its key's first byte, which hold up to 7 offset bits plus 25 key bits.
  static constexpr uint32_t kMaxSimdSelectBits = 25;

  // Writes each row of [begin, end) whose value lies in [lo, hi] to
  // rows[k] and its value to keys[k], k = 0, 1, ... in ascending row order,
  // and returns the count (0 when lo > hi). Each array needs end - begin
  // entries and no more: the vector kernel stores whole vectors at k, but
  // k never exceeds the rows before the step, so a store ends inside them.
  // Runs SelectInRangeAvx512 on a packed column of at most
  // kMaxSimdSelectBits bits over a span of two vector steps or more where
  // the CPU has AVX-512 VBMI, else SelectInRangeScalar.
  size_t SelectInRange(uint64_t begin, uint64_t end, int32_t lo, int32_t hi,
                       uint64_t* rows, int32_t* keys) const;

  // The two kernels SelectInRange chooses between, same contract; public so
  // tests run each directly. The scalar kernel reads any column; the vector
  // one needs a packed column of at most kMaxSimdSelectBits bits and
  // SimdSelectSupported().
  size_t SelectInRangeScalar(uint64_t begin, uint64_t end, int32_t lo,
                             int32_t hi, uint64_t* rows, int32_t* keys) const;
  size_t SelectInRangeAvx512(uint64_t begin, uint64_t end, int32_t lo,
                             int32_t hi, uint64_t* rows, int32_t* keys) const;
  // Whether this CPU (and OS) runs AVX-512 F, BW and VBMI code.
  static bool SimdSelectSupported();

  // Switches layout in place. Both are lossless; Pack picks ref = min
  // observed value and bits = ceil(log2(range + 1)) (>= 1 even for a
  // constant or empty column, so geometry never divides by zero).
  void Pack();
  void Unpack();

  // Packed words including the sentinel; num_words() is the payload length
  // persisted by table file format v4 (ceil(size * bits / 64)).
  const std::vector<uint64_t>& words() const { return words_; }
  uint64_t num_words() const { return (size_ * bits_ + 63) / 64; }

  // Rebuilds a packed column from persisted geometry + payload words
  // (table_io v4 reader). `words` holds exactly ceil(rows * bits / 64)
  // payload words; the sentinel is re-added here. Decodes the words once
  // for the exact value range.
  static KeyColumn FromPacked(uint64_t rows, uint32_t bits, int32_t ref,
                              std::vector<uint64_t> words);

  // Adopts a raw int32 vector wholesale (table_io v2/v3 reader), scanning
  // once for the min/max a later Pack() needs.
  static KeyColumn FromRaw(std::vector<int32_t> values);

  // The column `old` with values[j] inserted before old row before[j]
  // (`before` ascending, each <= old.size(); equal entries keep their
  // order), equal to FromRaw of the spliced values followed by the caller's
  // Pack or Unpack. When the exact range of the result keeps old's packed
  // frame (the ref and bits Pack would pick), the untouched runs are copied
  // as 64-bit chunks shifted to their new bit offset and each new value is
  // written in place. Otherwise (a value that widens or lowers the frame,
  // or a raw `old`) the result is raw, and Pack picks the new frame.
  static KeyColumn Splice(const KeyColumn& old,
                          std::span<const uint64_t> before,
                          std::span<const int32_t> values);

  uint64_t MemoryBytes() const {
    return packed_ ? words_.capacity() * 8 : raw_.capacity() * 4;
  }

 private:
  // Appends `value` to the packed words without range checks; caller
  // guarantees value - ref_ fits in bits_.
  void PackedAppend(int32_t value);
  // Re-derives bits_/mask_/ref_ from the observed min/max.
  void RecomputeWidth();

  bool packed_ = false;
  uint64_t size_ = 0;
  std::vector<int32_t> raw_;
  std::vector<uint64_t> words_;  // payload + >= 1 sentinel word when packed
  uint32_t bits_ = 1;
  uint64_t mask_ = 1;
  // Exact value range, kept by every constructor and mutation in both
  // layouts, so Pack() and widening repacks never rescan.
  int64_t ref_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  bool any_ = false;  // false until the first value seeds min_/max_
};

}  // namespace starshare

#endif  // STARSHARE_STORAGE_PACKED_COLUMN_H_
