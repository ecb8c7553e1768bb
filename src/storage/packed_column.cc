#include "storage/packed_column.h"

#include <algorithm>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// Keys per step of the vector select kernel (one 512-bit vector of 32-bit
// lanes).
constexpr uint64_t kSimdStepRows = 16;

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

size_t KeyColumn::SelectInRange(uint64_t begin, uint64_t end, int32_t lo,
                                int32_t hi, uint64_t* rows,
                                int32_t* keys) const {
  if (packed_ && bits_ <= kMaxSimdSelectBits &&
      end - begin >= 2 * kSimdStepRows && SimdSelectSupported()) {
    return SelectInRangeAvx512(begin, end, lo, hi, rows, keys);
  }
  return SelectInRangeScalar(begin, end, lo, hi, rows, keys);
}

size_t KeyColumn::SelectInRangeScalar(uint64_t begin, uint64_t end,
                                      int32_t lo, int32_t hi, uint64_t* rows,
                                      int32_t* keys) const {
  if (lo > hi) return 0;
  // v in [lo, hi] iff v - lo <= hi - lo, unsigned mod 2^32. Every row is
  // written at the list's end, and only a passing row advances it.
  const uint32_t span = static_cast<uint32_t>(hi) - static_cast<uint32_t>(lo);
  size_t k = 0;
  ForEach(begin, end, [&](uint64_t row, int32_t v) {
    rows[k] = row;
    keys[k] = v;
    k += static_cast<uint32_t>(v) - static_cast<uint32_t>(lo) <= span;
  });
  return k;
}

#if defined(__x86_64__)

bool KeyColumn::SimdSelectSupported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vbmi");
  }();
  return supported;
}

// 16 keys a step, in the packed domain: one byte load covers the step's
// keys, vpermb gives each 32-bit lane the 4 bytes from its key's first
// byte, a per-lane shift and the width mask leave the delta, and the range
// test and both compresses run on every step without a branch.
__attribute__((target("avx512f,avx512bw,avx512vbmi")))
size_t KeyColumn::SelectInRangeAvx512(uint64_t begin, uint64_t end,
                                      int32_t lo, int32_t hi, uint64_t* rows,
                                      int32_t* keys) const {
  SS_DCHECK(packed_ && bits_ <= kMaxSimdSelectBits);
  // [lo, hi] as deltas clipped to the frame [0, mask].
  const int64_t lo_delta = std::max<int64_t>(int64_t{lo} - ref_, 0);
  const int64_t hi_delta =
      std::min<int64_t>(int64_t{hi} - ref_, static_cast<int64_t>(mask_));
  if (lo_delta > hi_delta) return 0;
  // A scalar head to an 8-row boundary, so every step starts on a byte,
  // then whole steps up to `tail`, then a scalar tail.
  uint64_t row = std::min(end, (begin + 7) & ~uint64_t{7});
  const uint64_t tail = end - (end - row) % kSimdStepRows;
  size_t k = SelectInRangeScalar(begin, row, lo, hi, rows, keys);

  const uint32_t bits = bits_;
  alignas(64) uint8_t window[64] = {};  // lane i: bytes of key i's window
  alignas(64) uint32_t shift[16] = {};  // lane i: key i's first bit
  for (uint32_t i = 0; i < kSimdStepRows; ++i) {
    for (uint32_t b = 0; b < 4; ++b) window[4 * i + b] = (i * bits >> 3) + b;
    shift[i] = i * bits & 7;
  }
  const __m512i perm = _mm512_load_si512(window);
  const __m512i shifts = _mm512_load_si512(shift);
  const __m512i width = _mm512_set1_epi32(static_cast<int32_t>(mask_));
  const __m512i lo_v = _mm512_set1_epi32(static_cast<int32_t>(lo_delta));
  const __m512i span_v =
      _mm512_set1_epi32(static_cast<int32_t>(hi_delta - lo_delta));
  const __m512i ref_v = _mm512_set1_epi32(static_cast<int32_t>(ref_));
  const __m512i lanes_lo = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i lanes_hi = _mm512_set_epi64(15, 14, 13, 12, 11, 10, 9, 8);
  // Lane 15's window ends at most 3 bytes past its key's first byte, so
  // the last step reads at most into the sentinel word every packed column
  // carries past its payload.
  const __mmask64 load =
      (uint64_t{1} << ((((kSimdStepRows - 1) * bits) >> 3) + 4)) - 1;
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words_.data());
  for (; row < tail; row += kSimdStepRows) {
    const __m512i packed =
        _mm512_maskz_loadu_epi8(load, bytes + (row * bits >> 3));
    __m512i v = _mm512_maskz_permutexvar_epi8(~__mmask64{0}, perm, packed);
    v = _mm512_and_si512(_mm512_maskz_srlv_epi32(0xFFFF, v, shifts), width);
    const __mmask16 pass =
        _mm512_cmple_epu32_mask(_mm512_sub_epi32(v, lo_v), span_v);
    _mm512_storeu_si512(
        keys + k, _mm512_maskz_compress_epi32(pass, _mm512_add_epi32(v, ref_v)));
    const __m512i base = _mm512_set1_epi64(static_cast<int64_t>(row));
    // The count is taken from the two 8-lane halves, never from the 16-bit
    // mask itself: GCC 12 may spill that mask with a 2-byte kmovw and read
    // it back as the 4-byte operand of popcnt (seen in the TSan build, where
    // instrumentation calls force the spill), counting stale stack bits.
    const __mmask8 pass_lo = static_cast<__mmask8>(pass);
    const __mmask8 pass_hi = static_cast<__mmask8>(pass >> 8);
    const int n_lo = std::popcount(pass_lo);
    _mm512_storeu_si512(rows + k, _mm512_maskz_compress_epi64(
                                      pass_lo, _mm512_add_epi64(base, lanes_lo)));
    _mm512_storeu_si512(
        rows + k + n_lo,
        _mm512_maskz_compress_epi64(pass_hi, _mm512_add_epi64(base, lanes_hi)));
    k += n_lo + std::popcount(pass_hi);
  }
  return k + SelectInRangeScalar(tail, end, lo, hi, rows + k, keys + k);
}

#else  // !defined(__x86_64__): the scalar kernel is the only one.

bool KeyColumn::SimdSelectSupported() { return false; }

size_t KeyColumn::SelectInRangeAvx512(uint64_t begin, uint64_t end,
                                      int32_t lo, int32_t hi, uint64_t* rows,
                                      int32_t* keys) const {
  return SelectInRangeScalar(begin, end, lo, hi, rows, keys);
}

#endif

}  // namespace starshare
