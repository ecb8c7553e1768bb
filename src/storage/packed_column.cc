#include "storage/packed_column.h"

#include <algorithm>
#include <utility>

namespace starshare {

void KeyColumn::Reserve(uint64_t rows) {
  if (packed_) {
    words_.reserve((rows * bits_ + 63) / 64 + 1);
  } else {
    raw_.reserve(rows);
  }
}

void KeyColumn::RecomputeWidth() {
  ref_ = any_ ? min_ : 0;
  const uint64_t range =
      any_ ? static_cast<uint64_t>(max_ - min_) : 0;
  bits_ = range == 0 ? 1 : static_cast<uint32_t>(std::bit_width(range));
  mask_ = bits_ == 64 ? ~uint64_t{0} : (uint64_t{1} << bits_) - 1;
}

void KeyColumn::PackedAppend(int32_t value) {
  const uint64_t delta = static_cast<uint64_t>(value - ref_);
  const uint64_t pos = size_ * bits_;
  const uint64_t w = pos >> 6;
  const uint64_t off = pos & 63;
  // Keep the straddle word plus one sentinel allocated past the write.
  while (words_.size() < w + 2) words_.push_back(0);
  words_[w] |= delta << off;
  if (off + bits_ > 64) words_[w + 1] |= delta >> (64 - off);
  ++size_;
}

void KeyColumn::Append(int32_t value) {
  if (!any_ || value < min_) min_ = value;
  if (!any_ || value > max_) max_ = value;
  any_ = true;
  if (!packed_) {
    raw_.push_back(value);
    ++size_;
    return;
  }
  const int64_t delta = value - ref_;
  if (delta >= 0 && static_cast<uint64_t>(delta) <= mask_) {
    PackedAppend(value);
    return;
  }
  // Out-of-range value: widen by repacking the whole column at the new
  // frame of reference. Rare (appends normally stay within the domain the
  // column was packed with), and O(n) when it happens.
  Unpack();
  raw_.push_back(value);
  ++size_;
  Pack();
}

void KeyColumn::Pack() {
  if (packed_) return;
  RecomputeWidth();
  std::vector<int32_t> raw = std::move(raw_);
  raw_.clear();
  words_.assign((raw.size() * bits_ + 63) / 64 + 1, 0);
  packed_ = true;
  size_ = 0;
  for (const int32_t v : raw) PackedAppend(v);
}

void KeyColumn::Unpack() {
  if (!packed_) return;
  std::vector<int32_t> raw;
  raw.resize(size_);
  Decode(0, size_, raw.data());
  words_.clear();
  words_.shrink_to_fit();
  raw_ = std::move(raw);
  packed_ = false;
}

KeyColumn KeyColumn::FromRaw(std::vector<int32_t> values) {
  KeyColumn col;
  col.size_ = values.size();
  for (const int32_t v : values) {
    if (!col.any_ || v < col.min_) col.min_ = v;
    if (!col.any_ || v > col.max_) col.max_ = v;
    col.any_ = true;
  }
  col.raw_ = std::move(values);
  return col;
}

KeyColumn KeyColumn::FromPacked(uint64_t rows, uint32_t bits, int32_t ref,
                                std::vector<uint64_t> words) {
  SS_CHECK_MSG(bits >= 1 && bits <= 32,
               "implausible packed key width %u bits", bits);
  SS_CHECK(words.size() == (rows * bits + 63) / 64);
  KeyColumn col;
  col.packed_ = true;
  col.size_ = rows;
  col.bits_ = bits;
  col.mask_ = (uint64_t{1} << bits) - 1;
  col.ref_ = ref;
  words.push_back(0);  // sentinel for straddle loads
  col.words_ = std::move(words);
  // One decode for the exact range, so the loaded column appends, splices
  // and repacks exactly like one that was never saved.
  col.ForEach(0, rows, [&col](uint64_t, int32_t v) {
    col.min_ = col.any_ ? std::min<int64_t>(col.min_, v) : v;
    col.max_ = col.any_ ? std::max<int64_t>(col.max_, v) : v;
    col.any_ = true;
  });
  return col;
}

namespace {

// ORs the `nbits` bits at bit `src_pos` of `src` into `dst` at bit
// `dst_pos`, 64 at a time. Both arrays carry a sentinel word past their
// payload, so the straddle load and store stay in bounds.
void CopyBits(const uint64_t* src, uint64_t src_pos, uint64_t* dst,
              uint64_t dst_pos, uint64_t nbits) {
  while (nbits > 0) {
    const uint64_t n = std::min<uint64_t>(nbits, 64);
    const uint64_t src_off = src_pos & 63;
    uint64_t chunk = src[src_pos >> 6] >> src_off;
    if (src_off != 0) chunk |= src[(src_pos >> 6) + 1] << (64 - src_off);
    if (n < 64) chunk &= (uint64_t{1} << n) - 1;
    const uint64_t dst_off = dst_pos & 63;
    dst[dst_pos >> 6] |= chunk << dst_off;
    if (dst_off != 0) dst[(dst_pos >> 6) + 1] |= chunk >> (64 - dst_off);
    src_pos += n;
    dst_pos += n;
    nbits -= n;
  }
}

}  // namespace

KeyColumn KeyColumn::Splice(const KeyColumn& old,
                            std::span<const uint64_t> before,
                            std::span<const int32_t> values) {
  SS_CHECK(before.size() == values.size());
  KeyColumn col;
  col.size_ = old.size_ + values.size();
  // The result's exact range: old's, widened by each new value.
  col.any_ = old.any_;
  col.min_ = old.min_;
  col.max_ = old.max_;
  for (size_t j = 0; j < values.size(); ++j) {
    SS_DCHECK(before[j] <= old.size_ && (j == 0 || before[j - 1] <= before[j]));
    const int64_t v = values[j];
    col.min_ = col.any_ ? std::min(col.min_, v) : v;
    col.max_ = col.any_ ? std::max(col.max_, v) : v;
    col.any_ = true;
  }
  col.RecomputeWidth();

  if (!old.packed_ || col.ref_ != old.ref_ || col.bits_ != old.bits_) {
    std::vector<int32_t> raw(col.size_);
    uint64_t from = 0;
    for (size_t j = 0; j < values.size(); ++j) {
      old.Decode(from, before[j], raw.data() + from + j);
      raw[before[j] + j] = values[j];
      from = before[j];
    }
    old.Decode(from, old.size_, raw.data() + from + values.size());
    return FromRaw(std::move(raw));
  }

  const uint64_t bits = col.bits_;
  col.packed_ = true;
  col.words_.assign((col.size_ * bits + 63) / 64 + 1, 0);
  uint64_t* words = col.words_.data();
  uint64_t from = 0;
  for (size_t j = 0; j < values.size(); ++j) {
    CopyBits(old.words_.data(), from * bits, words, (from + j) * bits,
             (before[j] - from) * bits);
    const uint64_t delta = static_cast<uint64_t>(values[j] - col.ref_);
    const uint64_t pos = (before[j] + j) * bits;
    const uint64_t off = pos & 63;
    words[pos >> 6] |= delta << off;
    if (off != 0) words[(pos >> 6) + 1] |= delta >> (64 - off);
    from = before[j];
  }
  CopyBits(old.words_.data(), from * bits, words,
           (from + values.size()) * bits, (old.size_ - from) * bits);
  return col;
}

}  // namespace starshare
