// Budgeted aggregation input (exec/memory_budget.h): a SpillStage holds one
// consumer's raw (key, values) records in arrival order; when they exceed
// the consumer's grant it stable-sorts them by packed key and appends them
// to its SpillFile as one checksummed run. Replay() hands every record back
// with bounded read buffers.
//
// Bit-identity contract. Floating-point aggregation folds are order
// sensitive, so a spilled execution must replay each group's values in the
// exact order the unbudgeted path would have folded them. The stage is
// sorted *stably*, so within a run equal keys keep arrival order; runs are
// written in arrival order, so every record of run i arrived before any
// record of run j > i; and the records still staged at Replay arrived after
// every run. Replay pops records in (key, run index, position-in-run) order
// and, for each key, the staged tail's records after that key's runs — per
// key, precisely arrival order — so the replayed fold is bit-identical to
// the in-memory fold at any thread count, batch size and budget. The tail
// is replayed from memory, never written.
//
// On-disk format (raw little-endian sections, each closed by a CRC32, the
// format-v3/v4 conventions from storage/table_io.h):
//
//   run := rows u64 | bits u32 | ref u64
//          | ceil(rows*bits/64) x u64 key words | key CRC32 u32
//          | rows x (m x double) | value CRC32 u32
//
// Keys in a run are sorted ascending, so ref is the first key and bits =
// ceil(log2(last - first + 1)): the frame-of-reference bit-packing of
// storage/packed_column.h, applied to u64 group keys, whatever the page
// layout. Spill files are private scratch: the process that writes one is
// its only reader, and the DiskModel never charges them.
//
// Runs are appended back-to-back in one file per consumer, created lazily
// under the scratch directory with a unique per-query name and removed by
// the destructor on success and error paths alike.
//
// Failure model: every spill failure (a failed write, a failed or short
// read, a CRC mismatch) surfaces as StatusCode::kResourceExhausted. A
// failed write leaves its records staged; what happens next is the
// caller's policy (a query member fails and the engine's fallback ladder
// degrades it alone; a view build completes in memory). Fault sites
// "spill.write" and "spill.read" (keyed by query id) force each path; a
// kBitFlip read fault corrupts the buffer *before* checksumming, exactly as
// at-rest damage would. Replay emits records before their run's final CRC
// is validated; a late mismatch still fails the consumer, whose partial
// fold is discarded.

#ifndef STARSHARE_EXEC_SPILL_H_
#define STARSHARE_EXEC_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/status.h"
#include "exec/memory_budget.h"

namespace starshare {

// Where spill files live; empty resolves to DefaultScratchDir() at
// SpillFile construction.
struct SpillConfig {
  std::string scratch_dir;
};

// $TMPDIR when set, else /tmp.
std::string DefaultScratchDir();

class SpillFile {
 public:
  // One spill file for one consumer: records carry one packed u64 key and
  // `doubles_per_record` measure values. Nothing touches the filesystem
  // until the first AppendRun.
  SpillFile(const SpillConfig& config, int query_id,
            size_t doubles_per_record);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // Appends one run of `rows` records already stable-sorted by key.
  // `values` is row-major, doubles_per_record() per record. A failed write
  // registers no run. Fault site "spill.write" (keyed by the query id).
  Status AppendRun(const uint64_t* keys, const double* values, uint64_t rows);

  // K-way merges every run, calling emit(key, values) once per spilled
  // record in (key, run index, in-run position) order. Read buffers across
  // all runs are bounded by chunk_budget_bytes (floored at one record per
  // run). Each run's CRCs are verified as its last chunk drains. Fault
  // site "spill.read" (keyed by the query id).
  Status Merge(uint64_t chunk_budget_bytes,
               const std::function<void(uint64_t, const double*)>& emit);

  size_t num_runs() const { return runs_.size(); }
  uint64_t spilled_rows() const { return spilled_rows_; }
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  bool empty() const { return runs_.empty(); }
  size_t doubles_per_record() const { return doubles_; }
  const std::string& path() const { return path_; }

 private:
  struct RunInfo {
    uint64_t payload_offset = 0;  // first key word (after the run header)
    uint64_t rows = 0;
    // Key geometry, also persisted in the run header.
    uint32_t key_bits = 0;
    uint64_t key_ref = 0;
  };

  // Bytes of one record's values section.
  size_t value_size() const { return 8 * doubles_; }
  // Packed key words of a whole run.
  static uint64_t KeyWords(uint64_t rows, uint32_t bits) {
    return (rows * bits + 63) / 64;
  }

  Status OpenAndSeek(uint64_t offset, const char* what);

  int query_id_;
  size_t doubles_;
  std::string path_;
  FILE* file_ = nullptr;
  uint64_t end_offset_ = 0;  // where the next run starts
  std::vector<RunInfo> runs_;
  uint64_t spilled_rows_ = 0;
  uint64_t spilled_bytes_ = 0;
};

// One budgeted consumer's records: an arrival-order stage, capped by its
// grant, over its own SpillFile (see the contract above). Query members
// (AggregateSink) and view-build targets (ViewBuilder) each hold one.
class SpillStage {
 public:
  // Records carry one packed key and `doubles_per_record` values; runs go
  // to a file named for `query_id` under config's scratch dir.
  SpillStage(const MemoryGrant& grant, const SpillConfig& config,
             int query_id, size_t doubles_per_record);

  SpillStage(const SpillStage&) = delete;
  SpillStage& operator=(const SpillStage&) = delete;

  // Stages n records: keys[i] with values[i*m, (i+1)*m). If the stage then
  // exceeds the grant it is stable-sorted by key and appended as one run.
  // A failed write returns its Status and ends spilling: the records stay
  // staged, and so does every later one, whatever the grant.
  Status Append(const uint64_t* keys, const double* values, size_t n);

  // Calls fold(key, values) once per record, per key in arrival order (the
  // staged records alone, in arrival order, when no run was written), then
  // releases the stage and removes the file; the stage takes no further
  // call. A spill read failure returns its Status; the records folded so
  // far are then incomplete.
  Status Replay(const std::function<void(uint64_t, const double*)>& fold);

  // High-water of the staged bytes, runs written and their bytes.
  uint64_t peak_staged_bytes() const { return peak_staged_bytes_; }
  uint64_t spill_runs() const { return spill_runs_; }
  uint64_t spill_bytes() const { return spill_bytes_; }

 private:
  uint64_t StagedBytes() const { return (keys_.size() + values_.size()) * 8; }
  // Positions of the staged records, stable-sorted by key.
  std::vector<uint32_t> StableKeyOrder() const;

  MemoryGrant grant_;
  size_t doubles_;
  bool spilling_ = true;  // false after a failed write
  std::vector<uint64_t> keys_;
  std::vector<double> values_;  // doubles_ per record, row-major
  std::unique_ptr<SpillFile> file_;
  uint64_t peak_staged_bytes_ = 0;
  uint64_t spill_runs_ = 0;
  uint64_t spill_bytes_ = 0;
};

}  // namespace starshare

#endif  // STARSHARE_EXEC_SPILL_H_
