// ParallelPolicy: how much parallelism a morsel-driven pass may use.
// Shared by the exec/ parallel operators and cube/ view builds so neither
// layer depends on the other for the knob. The one pass driver
// (exec/operators/pass_driver.h) is the only reader of engaged(), the
// worker count and the morsel size.

#ifndef STARSHARE_PARALLEL_POLICY_H_
#define STARSHARE_PARALLEL_POLICY_H_

#include <cstdint>

#include "exec/vector_batch.h"
#include "parallel/thread_pool.h"

namespace starshare {

// With a null pool or parallelism <= 1 a pass runs serially on the calling
// thread, which by construction produces the same bits and charges the
// same IoStats as the morsel-parallel pass.
struct ParallelPolicy {
  ThreadPool* pool = nullptr;
  size_t parallelism = 1;
  // Rows per morsel (positions, for a probe), rounded up to whole pages by
  // MorselDispatcher::MorselRows; 0 picks 16K rows rounded the same way,
  // whatever the scan's size or worker count.
  uint64_t morsel_rows = 0;
  // Rows per batch, in each worker and in the serial driver. Orthogonal to
  // the parallelism knobs: any batch size runs at any worker count.
  BatchConfig batch;

  bool engaged() const { return pool != nullptr && parallelism > 1; }
};

}  // namespace starshare

#endif  // STARSHARE_PARALLEL_POLICY_H_
