// ParallelPolicy: how much parallelism a morsel-driven pass may use.
// Shared by the exec/ parallel operators and cube/ view builds so neither
// layer depends on the other for the knob.

#ifndef STARSHARE_PARALLEL_POLICY_H_
#define STARSHARE_PARALLEL_POLICY_H_

#include <cstdint>

#include "exec/vector_batch.h"
#include "parallel/morsel.h"
#include "parallel/thread_pool.h"

namespace starshare {

// With a null pool or parallelism <= 1 the morsel pipeline runs inline on
// the calling thread (no worker threads), which by construction produces
// the same bits as the parallel path.
struct ParallelPolicy {
  ThreadPool* pool = nullptr;
  size_t parallelism = 1;
  // Rows per morsel (positions, for a probe); 0 picks
  // MorselDispatcher::DefaultMorselRows: 16K rows rounded up to whole
  // pages, whatever the scan's size or worker count.
  uint64_t morsel_rows = 0;
  // Rows per batch, in each worker and in the serial driver. Orthogonal to
  // the parallelism knobs: any batch size runs at any worker count.
  BatchConfig batch;

  bool engaged() const { return pool != nullptr && parallelism > 1; }

  uint64_t EffectiveMorselRows(uint64_t rows_per_page) const {
    return morsel_rows > 0
               ? morsel_rows
               : MorselDispatcher::DefaultMorselRows(rows_per_page);
  }
};

}  // namespace starshare

#endif  // STARSHARE_PARALLEL_POLICY_H_
