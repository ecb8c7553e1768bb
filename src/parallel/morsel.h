// Morsel-driven work distribution (Leis et al., "Morsel-Driven
// Parallelism", adapted to StarShare's paged tables): a scan is split into
// contiguous row ranges ("morsels") aligned to page boundaries, handed out
// to workers through one atomic cursor. Alignment matters for accounting:
// a page is charged by exactly one worker, so the merged IoStats of a
// parallel scan equal the serial scan's page counts exactly.
//
// The dispatcher optionally applies backpressure: when constructed with a
// consume window, Next() blocks once the claimed index runs `window`
// morsels ahead of the last index the consumer marked consumed. The
// ordered-merge pipeline (morsel_pipeline.h) uses this to bound the memory
// held in not-yet-merged match buffers.

#ifndef STARSHARE_PARALLEL_MORSEL_H_
#define STARSHARE_PARALLEL_MORSEL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

namespace starshare {

struct Morsel {
  uint64_t index = 0;  // 0-based position in the scan order
  uint64_t begin = 0;  // first row (inclusive)
  uint64_t end = 0;    // last row (exclusive)

  uint64_t num_rows() const { return end - begin; }
};

class MorselDispatcher {
 public:
  // Splits [0, num_rows) into ceil(num_rows / morsel_rows) morsels.
  // `window` == 0 disables backpressure.
  MorselDispatcher(uint64_t num_rows, uint64_t morsel_rows,
                   uint64_t window = 0);

  MorselDispatcher(const MorselDispatcher&) = delete;
  MorselDispatcher& operator=(const MorselDispatcher&) = delete;

  uint64_t num_morsels() const { return num_morsels_; }
  uint64_t morsel_rows() const { return morsel_rows_; }

  // Claims the next morsel, or nullopt when the scan is exhausted. Blocks
  // while the window is full (until MarkConsumed catches up). Safe to call
  // from any number of threads.
  std::optional<Morsel> Next();

  // The ordered consumer reports progress; unblocks Next() callers. Must be
  // called with strictly increasing indexes.
  void MarkConsumed(uint64_t morsel_index);

  // The morsel size: `requested` rows (kMinMorselRows when 0) rounded up
  // to a multiple of `rows_per_page`, so morsels are page-aligned and each
  // page is charged by one morsel. The default does not grow with the
  // scan: the ordered merge buffers each morsel's matches per member, so a
  // fixed size keeps those buffers small (DESIGN.md §8).
  static uint64_t MorselRows(uint64_t requested, uint64_t rows_per_page);

  static constexpr uint64_t kMinMorselRows = 16 * 1024;

 private:
  const uint64_t num_rows_;
  const uint64_t morsel_rows_;
  const uint64_t num_morsels_;
  const uint64_t window_;

  std::mutex mu_;
  std::condition_variable window_open_;
  uint64_t next_index_ = 0;      // guarded by mu_
  uint64_t consumed_floor_ = 0;  // morsels fully consumed (prefix length)
};

}  // namespace starshare

#endif  // STARSHARE_PARALLEL_MORSEL_H_
