// Identity checks for maintained views: a table equal to another down to
// its packed words and measure bits, and a view whose statistics and
// indexes equal another's member by member and RID by RID.

#ifndef STARSHARE_TESTS_VIEW_IDENTITY_H_
#define STARSHARE_TESTS_VIEW_IDENTITY_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "cube/materialized_view.h"
#include "schema/star_schema.h"
#include "storage/table.h"

namespace starshare {
namespace testing {

inline void ExpectSameTable(const Table& got, const Table& want,
                            const std::string& label) {
  EXPECT_EQ(got.name(), want.name()) << label;
  EXPECT_EQ(got.compressed(), want.compressed()) << label;
  EXPECT_EQ(got.tuple_width_bits(), want.tuple_width_bits()) << label;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  ASSERT_EQ(got.num_key_columns(), want.num_key_columns()) << label;
  ASSERT_EQ(got.num_measures(), want.num_measures()) << label;
  for (size_t c = 0; c < got.num_key_columns(); ++c) {
    const KeyColumn& a = got.key_column(c);
    const KeyColumn& b = want.key_column(c);
    EXPECT_EQ(got.key_column_name(c), want.key_column_name(c)) << label;
    EXPECT_EQ(a.packed(), b.packed()) << label;
    EXPECT_EQ(a.bits(), b.bits()) << label << " column " << c;
    EXPECT_EQ(a.ref(), b.ref()) << label << " column " << c;
    if (a.packed() && b.packed()) {
      EXPECT_EQ(a.words(), b.words()) << label << " column " << c;
    }
  }
  for (size_t m = 0; m < got.num_measures(); ++m) {
    EXPECT_EQ(got.measure_name(m), want.measure_name(m)) << label;
  }
  for (uint64_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_key_columns(); ++c) {
      ASSERT_EQ(got.key(c, r), want.key(c, r))
          << label << " row " << r << " column " << c;
    }
    for (size_t m = 0; m < got.num_measures(); ++m) {
      const double a = got.measure(r, m);
      const double b = want.measure(r, m);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << label << " row " << r << " measure " << m << ": " << a
          << " vs " << b;
    }
  }
}

// `got` and `want` (views at the same spec) count the same rows under
// every member of every level of each retained dimension, index the same
// dimensions, and hold identical RID lists at every indexed level.
inline void ExpectSameStatsAndIndexes(const StarSchema& schema,
                                      const MaterializedView& got,
                                      const MaterializedView& want,
                                      const std::string& label) {
  ASSERT_EQ(got.spec(), want.spec()) << label;
  ASSERT_EQ(got.has_stats(), want.has_stats()) << label;
  EXPECT_EQ(got.IndexedDims(), want.IndexedDims()) << label;
  for (const size_t d : got.spec().RetainedDims(schema)) {
    const Hierarchy& h = schema.dim(d);
    for (int level = got.StoredLevel(d); level < h.num_levels(); ++level) {
      const BitmapJoinIndex* got_index = got.IndexOn(d, level);
      const BitmapJoinIndex* want_index = want.IndexOn(d, level);
      ASSERT_EQ(got_index == nullptr, want_index == nullptr)
          << label << " dim " << d << " level " << level;
      if (got_index != nullptr) {
        EXPECT_EQ(got_index->num_rows(), want_index->num_rows()) << label;
        EXPECT_EQ(got_index->num_values(), want_index->num_values()) << label;
        EXPECT_EQ(got_index->TotalPages(), want_index->TotalPages()) << label;
      }
      for (uint32_t m = 0; m < h.cardinality(level); ++m) {
        const int32_t member[] = {static_cast<int32_t>(m)};
        if (got.has_stats()) {
          ASSERT_EQ(got.RowsMatching(h, d, level, member),
                    want.RowsMatching(h, d, level, member))
              << label << " dim " << d << " level " << level << " member "
              << m;
        }
        if (got_index != nullptr) {
          ASSERT_TRUE(std::ranges::equal(got_index->Rids(member[0]),
                                         want_index->Rids(member[0])))
              << label << " dim " << d << " level " << level << " member "
              << m;
        }
      }
    }
  }
}

}  // namespace testing
}  // namespace starshare

#endif  // STARSHARE_TESTS_VIEW_IDENTITY_H_
