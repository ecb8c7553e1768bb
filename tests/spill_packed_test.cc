// Direct coverage of the spill layer (exec/spill.h). SpillFile: Merge must
// replay every appended record in stable key order (checked against an
// independent oracle: every record, stable-sorted by key in append order)
// at any chunk budget, packed runs must stay smaller than raw (key, value)
// records, the streaming word-window merge must survive chunk boundaries
// that split words, and the per-section CRCs must catch in-flight bit
// flips. SpillStage: runs plus an in-memory tail replay in arrival order
// per key, and a failed write leaves every record staged.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "exec/memory_budget.h"
#include "exec/spill.h"

namespace starshare {
namespace {

using Emitted = std::vector<std::pair<uint64_t, std::vector<double>>>;

// `records` stable-sorted by key: per key, append order.
Emitted StableByKey(Emitted records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return records;
}

class SpillPackedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("starshare_spill_packed_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Instance().Disable();
    std::filesystem::remove_all(dir_);
  }

  SpillConfig Config() const { return SpillConfig{dir_.string()}; }

  size_t NumScratchFiles() const {
    size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(dir_)) {
      ++n;
    }
    return n;
  }

  // Three sorted runs with interleaved, duplicated key ranges so the merge
  // heap has to alternate runs and respect arrival order on equal keys.
  // Returns every appended record in append order.
  static Emitted AppendRuns(SpillFile& file, size_t doubles) {
    Emitted appended;
    for (uint64_t run = 0; run < 3; ++run) {
      std::vector<uint64_t> keys;
      std::vector<double> values;
      for (uint64_t i = 0; i < 257; ++i) {  // 257: never a whole word count
        keys.push_back(run * 3 + (i / 2) * 10);  // sorted, ties in a run,
                                                 // overlapping across runs
        appended.emplace_back(keys.back(), std::vector<double>());
        for (size_t d = 0; d < doubles; ++d) {
          values.push_back(static_cast<double>(run * 10'000 + i) + d * 0.5);
          appended.back().second.push_back(values.back());
        }
      }
      EXPECT_TRUE(file.AppendRun(keys.data(), values.data(), keys.size()).ok());
    }
    return appended;
  }

  // Replays `stage` into a list of records.
  static Emitted ReplayAll(SpillStage& stage, size_t doubles) {
    Emitted out;
    const Status replayed =
        stage.Replay([&](uint64_t key, const double* values) {
          out.emplace_back(key, std::vector<double>(values, values + doubles));
        });
    EXPECT_TRUE(replayed.ok()) << replayed.ToString();
    return out;
  }

  static Emitted MergeAll(SpillFile& file, uint64_t budget) {
    Emitted out;
    const size_t doubles = file.doubles_per_record();
    SS_CHECK(file.Merge(budget, [&](uint64_t key, const double* v) {
      out.emplace_back(key, std::vector<double>(v, v + doubles));
    }).ok());
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(SpillPackedTest, MergeReplaysEveryRecordInStableKeyOrder) {
  // Run header (rows, bits, ref) and its two section CRCs.
  constexpr uint64_t kRunOverheadBytes = 8 + 4 + 8 + 4 + 4;
  for (const size_t doubles : {size_t{1}, size_t{2}}) {
    for (const uint64_t budget :
         {uint64_t{1}, uint64_t{512}, uint64_t{1} << 20}) {
      SpillFile file(Config(), 1, doubles);
      const Emitted appended = AppendRuns(file, doubles);
      ASSERT_EQ(file.spilled_rows(), appended.size());
      // Keys spanning ~1285 values pack at 11 bits, so a run takes less
      // than a raw u64 key plus its values per record: 16 bytes per
      // record at one double.
      EXPECT_LT(file.spilled_bytes(),
                appended.size() * (8 + 8 * doubles) +
                    file.num_runs() * kRunOverheadBytes);

      const Emitted merged = MergeAll(file, budget);
      ASSERT_EQ(merged.size(), 3u * 257u) << "budget " << budget;
      EXPECT_EQ(merged, StableByKey(appended))
          << "merge left stable key order at budget " << budget
          << ", doubles " << doubles;
    }
  }
}

TEST_F(SpillPackedTest, WideKeysNeedSixtyFourBits) {
  // A run whose keys span nearly the whole u64 domain: bits = 64, the
  // widest the packed layout supports (mask must not shift out).
  SpillFile file(Config(), 2, 1);
  const std::vector<uint64_t> keys = {0, 1, uint64_t{1} << 40,
                                      (uint64_t{1} << 63) + 9};
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(file.AppendRun(keys.data(), values.data(), keys.size()).ok());
  const Emitted got = MergeAll(file, 64);
  ASSERT_EQ(got.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(got[i].first, keys[i]);
    EXPECT_EQ(got[i].second[0], values[i]);
  }
}

TEST_F(SpillPackedTest, PackedReadBitFlipFailsWithResourceExhausted) {
  SpillFile file(Config(), 7, 1);
  std::vector<uint64_t> keys;
  std::vector<double> values;
  for (uint64_t i = 0; i < 2'000; ++i) {
    keys.push_back(i * 3);
    values.push_back(static_cast<double>(i));
  }
  ASSERT_TRUE(file.AppendRun(keys.data(), values.data(), keys.size()).ok());

  FaultInjector::Instance().Enable(23);
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.key = 7;
  spec.countdown = 2;  // flip during a mid-run refill
  FaultInjector::Instance().Arm("spill.read", spec);

  const Status s = file.Merge(256, [](uint64_t, const double*) {});
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
}

// Appends `batches` batches of `batch` records to `stage` (two doubles
// each, keys from a small domain so every key recurs in every run) and
// returns them in arrival order. Values are unique, so a replay out of
// arrival order shows.
Emitted AppendBatches(SpillStage& stage, int batches, size_t batch,
                      uint64_t* next_value, std::vector<Status>* statuses) {
  Emitted appended;
  for (int b = 0; b < batches; ++b) {
    std::vector<uint64_t> keys;
    std::vector<double> values;
    for (size_t i = 0; i < batch; ++i) {
      const uint64_t v = (*next_value)++;
      keys.push_back((v * 7919) % 13);
      values.push_back(static_cast<double>(v));
      values.push_back(-static_cast<double>(v));
      appended.emplace_back(keys.back(),
                            std::vector<double>(values.end() - 2,
                                                values.end()));
    }
    statuses->push_back(stage.Append(keys.data(), values.data(), batch));
  }
  return appended;
}

TEST_F(SpillPackedTest, StageReplaysRunsThenTailInArrivalOrderPerKey) {
  // 100 records of 24 bytes fit the grant, so batches of 40 flush at every
  // third batch: ten batches give three runs and a 40-record tail.
  MemoryGrant grant;
  grant.unbounded = false;
  grant.cap_bytes = 100 * 24;
  SpillStage stage(grant, Config(), 5, 2);
  uint64_t next_value = 0;
  std::vector<Status> statuses;
  const Emitted appended =
      AppendBatches(stage, 10, 40, &next_value, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(stage.spill_runs(), 3u);
  EXPECT_EQ(NumScratchFiles(), 1u);
  EXPECT_EQ(stage.peak_staged_bytes(), 120u * 24u);

  // Runs and tail together: every record, per key in arrival order (the
  // tail's records after the same key's runs).
  EXPECT_EQ(ReplayAll(stage, 2), StableByKey(appended));
  EXPECT_EQ(NumScratchFiles(), 0u) << "Replay left its scratch file";

  // Nothing spilled: the stage replays in arrival order.
  SpillStage small(grant, Config(), 5, 2);
  statuses.clear();
  const Emitted few = AppendBatches(small, 2, 40, &next_value, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok());
  EXPECT_EQ(small.spill_runs(), 0u);
  EXPECT_EQ(ReplayAll(small, 2), few);
}

TEST_F(SpillPackedTest, FailedWriteLeavesTheRecordsStaged) {
  MemoryGrant grant;
  grant.unbounded = false;
  grant.cap_bytes = 100 * 24;
  SpillStage stage(grant, Config(), 6, 2);
  FaultInjector::Instance().Enable(29);
  FaultSpec spec;
  spec.key = 6;
  spec.countdown = 2;  // the first run is written, the second write fails
  FaultInjector::Instance().Arm("spill.write", spec);

  uint64_t next_value = 0;
  std::vector<Status> statuses;
  const Emitted appended =
      AppendBatches(stage, 10, 40, &next_value, &statuses);
  FaultInjector::Instance().Disable();
  // Batch 3 wrote the run; batch 6's write failed.
  for (size_t b = 0; b < statuses.size(); ++b) {
    EXPECT_EQ(statuses[b].code(),
              b == 5 ? StatusCode::kResourceExhausted : StatusCode::kOk)
        << "batch " << b;
  }
  EXPECT_EQ(stage.spill_runs(), 1u);
  // The failed write kept its 120 records, and every later one stayed
  // staged too: 280 records of 24 bytes.
  EXPECT_EQ(stage.peak_staged_bytes(), 280u * 24u);
  EXPECT_EQ(ReplayAll(stage, 2), StableByKey(appended));
  EXPECT_EQ(NumScratchFiles(), 0u);
}

}  // namespace
}  // namespace starshare
