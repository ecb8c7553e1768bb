// Edge coverage for bit-packed key columns (storage/packed_column.h) and
// the compressed table geometry built on them: degenerate 1-value domains,
// the full int32 domain (32-bit deltas, the widest v4 allows), empty
// columns/tables, payloads ending in a partial word, and widening repacks
// on out-of-range appends. Everything round-trips exactly — packing is
// lossless by contract. SelectInRange's kernels (the scalar one, and the
// AVX-512 one where the CPU has it) are checked against a row-by-row Get
// at every width.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/packed_column.h"
#include "storage/page.h"
#include "storage/table.h"
#include "storage/table_io.h"

namespace starshare {
namespace {

std::vector<int32_t> DecodeAll(const KeyColumn& col) {
  std::vector<int32_t> out(col.size());
  col.Decode(0, col.size(), out.data());
  return out;
}

TEST(PackedColumnTest, ConstantDomainPacksToOneBit) {
  KeyColumn col;
  for (int i = 0; i < 100; ++i) col.Append(7);
  col.Pack();
  ASSERT_TRUE(col.packed());
  EXPECT_EQ(col.bits(), 1u);
  EXPECT_EQ(col.ref(), 7);
  // 100 one-bit values: two payload words.
  EXPECT_EQ(col.num_words(), 2u);
  for (uint64_t r = 0; r < col.size(); ++r) EXPECT_EQ(col.Get(r), 7);
  EXPECT_EQ(DecodeAll(col), std::vector<int32_t>(100, 7));
}

TEST(PackedColumnTest, FullInt32DomainNeedsThirtyTwoBits) {
  // min .. max spans 2^32 - 1 delta values — the widest a key column can
  // be. Extraction must not truncate and ref arithmetic must not overflow.
  const int32_t lo = std::numeric_limits<int32_t>::min();
  const int32_t hi = std::numeric_limits<int32_t>::max();
  const std::vector<int32_t> values = {lo, -1, 0, 1, hi, lo + 1, hi - 1};
  KeyColumn col = KeyColumn::FromRaw(values);
  col.Pack();
  ASSERT_TRUE(col.packed());
  EXPECT_EQ(col.bits(), 32u);
  EXPECT_EQ(col.ref(), lo);
  EXPECT_EQ(DecodeAll(col), values);
  // And back out again.
  col.Unpack();
  EXPECT_FALSE(col.packed());
  EXPECT_EQ(DecodeAll(col), values);
}

TEST(PackedColumnTest, EmptyColumnHasSaneGeometry) {
  KeyColumn col;
  col.Pack();
  EXPECT_TRUE(col.packed());
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(col.bits(), 1u);  // geometry never divides by zero
  EXPECT_EQ(col.num_words(), 0u);
  col.ForEach(0, 0, [](uint64_t, int32_t) { FAIL(); });
}

TEST(PackedColumnTest, TrailingPartialWordRoundTrips) {
  // 13 values at 5 bits = 65 bits: one full word plus a 1-bit remainder in
  // the second. The straddle at value 12 (bits 60..64) crosses the word
  // boundary and the final word is almost entirely padding.
  std::vector<int32_t> values;
  for (int32_t i = 0; i < 13; ++i) values.push_back(i * 2 + 5);  // 5..29
  KeyColumn col = KeyColumn::FromRaw(values);
  col.Pack();
  ASSERT_TRUE(col.packed());
  EXPECT_EQ(col.bits(), 5u);
  EXPECT_EQ(col.num_words(), 2u);
  EXPECT_EQ(DecodeAll(col), values);

  // Persist-and-restore through the v4 payload contract: exactly
  // num_words() words, sentinel re-added by FromPacked.
  std::vector<uint64_t> payload(col.words().begin(),
                                col.words().begin() + col.num_words());
  KeyColumn restored =
      KeyColumn::FromPacked(col.size(), col.bits(), col.ref(),
                            std::move(payload));
  EXPECT_EQ(DecodeAll(restored), values);
}

TEST(PackedColumnTest, OutOfRangeAppendWidensInPlace) {
  KeyColumn col;
  for (int32_t i = 0; i < 50; ++i) col.Append(i % 8);  // 3 bits
  col.Pack();
  ASSERT_EQ(col.bits(), 3u);
  col.Append(1000);  // forces a widening repack
  ASSERT_TRUE(col.packed());
  EXPECT_EQ(col.bits(), 10u);  // range 0..1000
  EXPECT_EQ(col.size(), 51u);
  for (uint64_t r = 0; r < 50; ++r) {
    EXPECT_EQ(col.Get(r), static_cast<int32_t>(r % 8));
  }
  EXPECT_EQ(col.Get(50), 1000);
  // In-range appends stay O(1) on the packed layout.
  col.Append(3);
  EXPECT_EQ(col.bits(), 10u);
  EXPECT_EQ(col.Get(51), 3);
}

// ---- Splice -----------------------------------------------------------------

// `old`'s values with values[j] inserted before old row before[j].
std::vector<int32_t> Spliced(const KeyColumn& old,
                             const std::vector<uint64_t>& before,
                             const std::vector<int32_t>& values) {
  const std::vector<int32_t> old_values = DecodeAll(old);
  std::vector<int32_t> out;
  size_t j = 0;
  for (uint64_t r = 0; r <= old_values.size(); ++r) {
    for (; j < before.size() && before[j] == r; ++j) out.push_back(values[j]);
    if (r < old_values.size()) out.push_back(old_values[r]);
  }
  return out;
}

// Splice, then Pack, must give what packing the spliced values from raw
// gives: the same frame and the same words, sentinel included.
void ExpectSpliceMatchesRepack(const KeyColumn& old,
                               const std::vector<uint64_t>& before,
                               const std::vector<int32_t>& values,
                               bool expect_fast) {
  KeyColumn want = KeyColumn::FromRaw(Spliced(old, before, values));
  want.Pack();
  KeyColumn got = KeyColumn::Splice(old, before, values);
  EXPECT_EQ(got.packed(), expect_fast);
  got.Pack();
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got.bits(), want.bits());
  EXPECT_EQ(got.ref(), want.ref());
  EXPECT_EQ(got.words(), want.words());
  EXPECT_EQ(DecodeAll(got), DecodeAll(want));
}

// `n` ascending insertion points into a column of `rows` rows, with ties.
std::vector<uint64_t> InsertionPoints(Rng& rng, uint64_t rows, size_t n) {
  std::vector<uint64_t> before;
  for (size_t j = 0; j < n; ++j) before.push_back(rng.NextBounded(rows + 1));
  if (n > 1) before[n / 2] = before[0];  // a tie
  std::sort(before.begin(), before.end());
  return before;
}

TEST(PackedColumnTest, SpliceMatchesRepackAtEveryWidth) {
  Rng rng(2026);
  for (const uint32_t bits : {1u, 3u, 7u, 13u, 14u, 31u, 32u}) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    const int64_t span = int64_t{1} << bits;
    const int64_t ref = bits >= 31 ? std::numeric_limits<int32_t>::min() : 5;
    const auto value_at = [&](int64_t delta) {
      return static_cast<int32_t>(ref + delta);
    };
    std::vector<int32_t> old_values = {value_at(0), value_at(span - 1)};
    for (int i = 0; i < 300; ++i) {
      old_values.push_back(value_at(static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(span)))));
    }
    KeyColumn old = KeyColumn::FromRaw(old_values);
    old.Pack();
    ASSERT_EQ(old.bits(), bits);

    // In the frame: the fast path, at the front, the back, in runs.
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{120}}) {
      std::vector<int32_t> values;
      for (size_t j = 0; j < n; ++j) {
        values.push_back(value_at(static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(span)))));
      }
      ExpectSpliceMatchesRepack(old, InsertionPoints(rng, old.size(), n),
                                values, /*expect_fast=*/true);
      ExpectSpliceMatchesRepack(old, std::vector<uint64_t>(n, 0), values,
                                /*expect_fast=*/true);
      ExpectSpliceMatchesRepack(old, std::vector<uint64_t>(n, old.size()),
                                values, /*expect_fast=*/true);
    }
    if (bits < 31) {
      // Above the frame widens it; below lowers its ref: both repack.
      const std::vector<uint64_t> two = InsertionPoints(rng, old.size(), 2);
      ExpectSpliceMatchesRepack(old, two, {value_at(1), value_at(span)},
                                /*expect_fast=*/false);
      ExpectSpliceMatchesRepack(old, two, {value_at(-1), value_at(0)},
                                /*expect_fast=*/false);
    }
    // A raw column splices raw.
    const KeyColumn raw = KeyColumn::FromRaw(old_values);
    ExpectSpliceMatchesRepack(raw, {0, 3, 3, raw.size()},
                              {value_at(0), value_at(1), value_at(0),
                               value_at(span - 1)},
                              /*expect_fast=*/false);
  }
}

TEST(PackedColumnTest, SpliceOfLoadedColumnUsesExactRange) {
  // FromPacked knows only the window [ref, ref + mask] of the file's frame.
  // Values 1..5 at ref 1: 3 bits (window 1..8), or a wider 4-bit frame a
  // file may carry (window 1..16).
  const std::vector<int32_t> values = {1, 5, 3, 2, 5, 4, 1};
  const auto load = [&](uint32_t bits) {
    uint64_t word = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      word |= static_cast<uint64_t>(values[i] - 1) << (bits * i);
    }
    return KeyColumn::FromPacked(values.size(), bits, 1, {word});
  };
  const KeyColumn tight = load(3);
  const KeyColumn wide = load(4);
  ASSERT_EQ(DecodeAll(tight), values);
  ASSERT_EQ(DecodeAll(wide), values);

  // In the wide window but not in the exact frame: repacks to 3 bits.
  ExpectSpliceMatchesRepack(wide, {2}, {2}, /*expect_fast=*/false);
  // Lowering to 0 moves the ref.
  ExpectSpliceMatchesRepack(tight, {2}, {0}, /*expect_fast=*/false);
  // In the frame: the fast path, and the result's range is the exact one,
  // so a later repack picks the frame a rebuilt column would.
  const std::vector<uint64_t> at_end = {7};
  const std::vector<int32_t> two = {2};
  KeyColumn once = KeyColumn::Splice(tight, at_end, two);
  ASSERT_TRUE(once.packed());
  once.Unpack();
  once.Append(0);
  once.Pack();
  std::vector<int32_t> all = values;
  all.push_back(2);
  all.push_back(0);
  KeyColumn want = KeyColumn::FromRaw(all);
  want.Pack();
  EXPECT_EQ(once.bits(), want.bits());
  EXPECT_EQ(once.words(), want.words());
  // And into an empty loaded column.
  const KeyColumn empty = KeyColumn::FromPacked(0, 1, 0, {});
  ExpectSpliceMatchesRepack(empty, {0, 0}, {0, 1}, /*expect_fast=*/true);
  ExpectSpliceMatchesRepack(empty, {}, {}, /*expect_fast=*/true);
}

// ---- SelectInRange ----------------------------------------------------------

using SelectKernel = size_t (KeyColumn::*)(uint64_t, uint64_t, int32_t,
                                           int32_t, uint64_t*, int32_t*) const;

// Runs `kernel` over [begin, end) and checks it against a row-by-row Get,
// and that it writes nothing past the end - begin entries the contract
// allows.
void ExpectSelectMatchesGet(const KeyColumn& col, SelectKernel kernel,
                            uint64_t begin, uint64_t end, int64_t lo,
                            int64_t hi) {
  SCOPED_TRACE(::testing::Message() << "bits " << col.bits() << " packed "
                                    << col.packed() << " [" << begin << ", "
                                    << end << ") lo " << lo << " hi " << hi);
  std::vector<uint64_t> want_rows;
  std::vector<int32_t> want_keys;
  for (uint64_t row = begin; row < end; ++row) {
    const int32_t v = col.Get(row);
    if (v >= lo && v <= hi) {
      want_rows.push_back(row);
      want_keys.push_back(v);
    }
  }
  constexpr size_t kGuard = 32;
  const size_t n = end - begin;
  std::vector<uint64_t> rows(n + kGuard, ~uint64_t{0});
  std::vector<int32_t> keys(n + kGuard, -7);
  const size_t k = (col.*kernel)(begin, end, static_cast<int32_t>(lo),
                                 static_cast<int32_t>(hi), rows.data(),
                                 keys.data());
  ASSERT_EQ(k, want_rows.size());
  EXPECT_EQ(std::vector<uint64_t>(rows.begin(), rows.begin() + k), want_rows);
  EXPECT_EQ(std::vector<int32_t>(keys.begin(), keys.begin() + k), want_keys);
  for (size_t i = n; i < n + kGuard; ++i) {
    ASSERT_EQ(rows[i], ~uint64_t{0}) << "row slot " << i << " written";
    ASSERT_EQ(keys[i], -7) << "key slot " << i << " written";
  }
}

// Every begin in 0..17 up to the payload end (whose last vector step ends
// exactly there for begin 0 and 9..16, as the row count is a multiple of
// 16), a few shorter spans, and ranges: empty, one member, the whole
// domain, below the ref, above the maximum, straddling either end, and
// random.
void ExpectSelectMatchesGetOverRanges(const KeyColumn& col,
                                      SelectKernel kernel, Rng& rng) {
  const int64_t min = col.min();
  const int64_t max = col.max();
  const auto key_at_random = [&] {
    return int64_t{col.Get(rng.NextBounded(col.size()))};
  };
  const int64_t x = key_at_random();
  int64_t y = key_at_random();
  int64_t z = key_at_random();
  if (y > z) std::swap(y, z);
  const int64_t lowest = std::numeric_limits<int32_t>::min();
  const int64_t highest = std::numeric_limits<int32_t>::max();
  std::vector<std::pair<int64_t, int64_t>> ranges = {
      {1, 0}, {x, x}, {min, max}, {lowest, highest}, {y, z},
      {std::max(lowest, min - 3), x}, {x, std::min(highest, max + 3)}};
  if (x < highest) ranges.push_back({x + 1, x});
  if (min - 10 >= lowest) ranges.push_back({min - 10, min - 1});
  if (max + 10 <= highest) ranges.push_back({max + 1, max + 10});
  const uint64_t size = col.size();
  for (const auto& [lo, hi] : ranges) {
    for (uint64_t begin = 0; begin <= 17; ++begin) {
      ExpectSelectMatchesGet(col, kernel, begin, size, lo, hi);
    }
    for (const uint64_t end : {uint64_t{0}, uint64_t{1}, uint64_t{31},
                               uint64_t{32}, uint64_t{47}, size - 5}) {
      for (const uint64_t begin : {uint64_t{0}, uint64_t{3}, uint64_t{8}}) {
        if (begin <= end) ExpectSelectMatchesGet(col, kernel, begin, end, lo, hi);
      }
    }
  }
}

// A packed column of `rows` values (a multiple of 16) at exactly `bits`
// bits, both ends of its frame present, and a nonzero ref at most widths.
KeyColumn ColumnAtWidth(Rng& rng, uint32_t bits, uint64_t rows) {
  const int64_t span = int64_t{1} << bits;
  const int64_t ref = bits == 32   ? std::numeric_limits<int32_t>::min()
                      : bits == 31 ? -(int64_t{1} << 30)
                      : bits % 3 == 0 ? 0
                                      : -7 * int64_t{bits} + 3;
  std::vector<int32_t> values;
  for (uint64_t r = 0; r < rows; ++r) {
    values.push_back(static_cast<int32_t>(
        ref + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(span)))));
  }
  values[rng.NextBounded(rows)] = static_cast<int32_t>(ref);
  values[rng.NextBounded(rows)] = static_cast<int32_t>(ref + span - 1);
  KeyColumn col = KeyColumn::FromRaw(std::move(values));
  col.Pack();
  return col;
}

// Checks `kernel` over every width 1..32 (vector kernels only up to
// kMaxSimdSelectBits), the raw layout, and columns rebuilt by FromPacked and
// Splice.
void ExpectKernelMatchesGet(SelectKernel kernel, bool vector_only) {
  Rng rng(1998);
  constexpr uint64_t kRows = 16 * 24;
  for (uint32_t bits = 1; bits <= 32; ++bits) {
    if (vector_only && bits > KeyColumn::kMaxSimdSelectBits) break;
    const KeyColumn col = ColumnAtWidth(rng, bits, kRows);
    ASSERT_TRUE(col.packed());
    ASSERT_EQ(col.bits(), bits);
    ExpectSelectMatchesGetOverRanges(col, kernel, rng);

    std::vector<uint64_t> payload(col.words().begin(),
                                  col.words().begin() + col.num_words());
    const KeyColumn loaded = KeyColumn::FromPacked(
        col.size(), col.bits(), col.ref(), std::move(payload));
    ExpectSelectMatchesGetOverRanges(loaded, kernel, rng);

    // 16 more in-frame values keep the row count a multiple of 16.
    std::vector<int32_t> inserted;
    for (int j = 0; j < 16; ++j) {
      inserted.push_back(col.Get(rng.NextBounded(col.size())));
    }
    const KeyColumn spliced = KeyColumn::Splice(
        col, InsertionPoints(rng, col.size(), inserted.size()), inserted);
    ASSERT_TRUE(spliced.packed());
    ASSERT_EQ(spliced.bits(), bits);
    ExpectSelectMatchesGetOverRanges(spliced, kernel, rng);
  }
  if (vector_only) return;
  std::vector<int32_t> raw_values;
  for (uint64_t r = 0; r < kRows; ++r) {
    raw_values.push_back(static_cast<int32_t>(rng.NextBounded(1000)) - 500);
  }
  const KeyColumn raw = KeyColumn::FromRaw(std::move(raw_values));
  ExpectSelectMatchesGetOverRanges(raw, kernel, rng);
}

TEST(PackedColumnTest, SelectInRangeMatchesGet) {
  ExpectKernelMatchesGet(&KeyColumn::SelectInRange, /*vector_only=*/false);
}

TEST(PackedColumnTest, ScalarSelectInRangeMatchesGet) {
  ExpectKernelMatchesGet(&KeyColumn::SelectInRangeScalar,
                         /*vector_only=*/false);
}

TEST(PackedColumnTest, Avx512SelectInRangeMatchesGet) {
  if (!KeyColumn::SimdSelectSupported()) {
    GTEST_SKIP() << "this CPU lacks AVX-512 F/BW/VBMI; the vector select "
                    "kernel is not run";
  }
  ExpectKernelMatchesGet(&KeyColumn::SelectInRangeAvx512,
                         /*vector_only=*/true);
}

// ---- Compressed table geometry over the edge columns ----------------------

TEST(PackedColumnTest, EmptyCompressedTableHasZeroPages) {
  Table t("empty", {"a", "b"}, "m");
  t.SetCompressed(true);
  EXPECT_TRUE(t.compressed());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_pages(), 0u);
  EXPECT_EQ(t.SizeBytes(), 0u);
}

TEST(PackedColumnTest, CompressedGeometryTracksKeyWidths) {
  Table t("t", {"a", "b"}, "m");
  for (int32_t r = 0; r < 10'000; ++r) {
    const int32_t keys[] = {r % 2, r % 1000};
    t.AppendRow(keys, 1.0);
  }
  const uint64_t rpp_unc = t.rows_per_page();
  ASSERT_EQ(rpp_unc, kPageSizeBytes / t.tuple_width_bytes());
  t.SetCompressed(true);
  // 1 bit + 10 bits + 64 measure bits = 75 bits per tuple.
  EXPECT_EQ(t.tuple_width_bits(), 75u);
  EXPECT_EQ(t.rows_per_page(), kPageSizeBytes * 8 / 75);
  EXPECT_GT(t.rows_per_page(), rpp_unc);
  EXPECT_LT(t.num_pages(), (t.num_rows() + rpp_unc - 1) / rpp_unc);
  // Values unchanged by the layout switch.
  EXPECT_EQ(t.key(0, 9'999), 9'999 % 2);
  EXPECT_EQ(t.key(1, 9'999), 9'999 % 1000);
  t.SetCompressed(false);
  EXPECT_EQ(t.rows_per_page(), rpp_unc);
  EXPECT_EQ(t.key(1, 1'234), 1'234 % 1000);
}

TEST(PackedColumnTest, EdgeTablesSurviveV4Files) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("starshare_packed_col_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Constant key domain, int32-extreme domain, and an empty table.
  Table edge("edge", {"c", "wide"}, "m");
  const int32_t hi = std::numeric_limits<int32_t>::max();
  const int32_t lo = std::numeric_limits<int32_t>::min();
  for (int32_t r = 0; r < 777; ++r) {
    const int32_t keys[] = {42, (r % 2 != 0) ? hi : lo};
    edge.AppendRow(keys, r * 0.5);
  }
  edge.SetCompressed(true);
  Table empty("nothing", {"a"}, "m");
  empty.SetCompressed(true);

  for (const Table* t : {&edge, &empty}) {
    const std::string path = (dir / (t->name() + ".sstb")).string();
    ASSERT_TRUE(WriteTableFile(*t, path).ok()) << t->name();
    const auto r = ReadTableFile(path, {.max_attempts = 1, .backoff_ms = 0});
    ASSERT_TRUE(r.ok()) << t->name() << ": " << r.status().ToString();
    const Table& back = *r.value();
    EXPECT_TRUE(back.compressed()) << t->name();
    ASSERT_EQ(back.num_rows(), t->num_rows()) << t->name();
    EXPECT_EQ(back.tuple_width_bits(), t->tuple_width_bits()) << t->name();
    for (uint64_t row = 0; row < back.num_rows(); ++row) {
      for (size_t c = 0; c < back.num_key_columns(); ++c) {
        ASSERT_EQ(back.key(c, row), t->key(c, row))
            << t->name() << " row " << row;
      }
      ASSERT_DOUBLE_EQ(back.measure(row), t->measure(row)) << t->name();
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace starshare
