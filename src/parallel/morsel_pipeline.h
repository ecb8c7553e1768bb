// The ordered morsel pipeline: the mechanism that makes every parallel
// operator bit-identical to its serial twin.
//
//   workers  : morsel -> Buffer            (runs on the pool, any order)
//   consumer : Buffer, in morsel order     (runs on the calling thread)
//
// Workers claim morsels through the dispatcher's atomic cursor, produce a
// private Buffer per morsel (match rows, packed keys, partial columns —
// whatever the operator emits) and publish it into a slot array. The
// calling thread consumes slots strictly in morsel-index order, so the
// concatenation of consumed buffers is exactly the serial scan order —
// floating-point aggregation folds in the identical sequence and the
// result is bit-identical to the serial operator for ANY thread count and
// ANY morsel size. Consumption overlaps production, and the dispatcher's
// backpressure window bounds how many produced-but-unconsumed buffers can
// exist at once.
//
// With no pool, one worker requested or a pool that refuses every worker,
// everything runs inline on the calling thread — same code, no threads,
// trivially the serial order. The pass driver (exec/operators/
// pass_driver.h) is the engine's one caller.

#ifndef STARSHARE_PARALLEL_MORSEL_PIPELINE_H_
#define STARSHARE_PARALLEL_MORSEL_PIPELINE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "parallel/morsel.h"
#include "parallel/parallel_context.h"
#include "parallel/thread_pool.h"

namespace starshare {

// Runs `produce(morsel, worker_disk, buffer)` over every morsel of
// `dispatcher` using up to `parallelism` pool workers, then feeds each
// buffer to `consume(morsel, buffer)` on the calling thread in ascending
// morsel order. `ctx` supplies the per-worker DiskModels; the caller is
// responsible for ctx.MergeIntoParent() afterwards.
template <typename Buffer, typename ProduceFn, typename ConsumeFn>
void RunMorselPipeline(ThreadPool* pool, size_t parallelism,
                       MorselDispatcher& dispatcher, ParallelContext& ctx,
                       ProduceFn&& produce, ConsumeFn&& consume) {
  const uint64_t num_morsels = dispatcher.num_morsels();
  if (num_morsels == 0) return;

  struct Slot {
    Buffer buffer;
    Morsel morsel;
  };
  std::vector<Slot> slots(num_morsels);
  std::vector<std::atomic<bool>> ready(num_morsels);
  for (auto& r : ready) r.store(false, std::memory_order_relaxed);
  std::mutex mu;
  std::condition_variable slot_ready;

  const size_t n_workers =
      pool == nullptr || parallelism <= 1
          ? 0
          : std::min<size_t>(parallelism, ctx.num_workers());
  std::vector<TaskHandle> tasks;
  tasks.reserve(n_workers);
  for (size_t w = 0; w < n_workers; ++w) {
    Result<TaskHandle> task = pool->TrySubmit([&, w] {
      DiskModel& disk = ctx.worker_disk(w);
      while (auto morsel = dispatcher.Next()) {
        Slot& slot = slots[morsel->index];
        slot.morsel = *morsel;
        produce(*morsel, disk, slot.buffer);
        {
          std::lock_guard<std::mutex> lock(mu);
          ready[morsel->index].store(true, std::memory_order_release);
        }
        slot_ready.notify_one();
      }
    });
    if (!task.ok()) break;  // pool draining: run with however many we got
    tasks.push_back(std::move(task).value());
  }

  if (tasks.empty()) {
    // Inline on the calling thread: no pool, one worker requested, or the
    // pool refused every worker (engine teardown racing a query). Produce
    // + consume + MarkConsumed per morsel, same order, zero threads, so the
    // query still completes. Producing without consuming would fill the
    // dispatcher's backpressure window and block Next() forever once
    // num_morsels exceeds it.
    DiskModel& disk = ctx.worker_disk(0);
    while (auto morsel = dispatcher.Next()) {
      Buffer buffer;
      produce(*morsel, disk, buffer);
      consume(*morsel, buffer);
      dispatcher.MarkConsumed(morsel->index);
    }
    return;
  }

  // Ordered consumption on the calling thread, overlapping the workers.
  for (uint64_t m = 0; m < num_morsels; ++m) {
    if (!ready[m].load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(mu);
      slot_ready.wait(lock, [&] {
        return ready[m].load(std::memory_order_acquire);
      });
    }
    consume(slots[m].morsel, slots[m].buffer);
    slots[m].buffer = Buffer();  // free merged data before the scan ends
    dispatcher.MarkConsumed(m);
  }
  for (TaskHandle& t : tasks) t.Wait();
}

}  // namespace starshare

#endif  // STARSHARE_PARALLEL_MORSEL_PIPELINE_H_
