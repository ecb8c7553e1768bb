// Unit coverage for the parallel substrate: ThreadPool, MorselDispatcher
// (partitioning, page alignment, backpressure) and the ordered morsel
// pipeline, plus ParallelContext's stat/fault merging.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "parallel/morsel.h"
#include "parallel/morsel_pipeline.h"
#include "parallel/parallel_context.h"
#include "parallel/thread_pool.h"

namespace starshare {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskAndWaitBlocks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(pool.Submit([&counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (TaskHandle& h : handles) h.Wait();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.tasks_run(), 100u);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; }).Wait();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait: the destructor's graceful shutdown must run them all.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, HardwareThreadsNeverZero) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(MorselDispatcherTest, PartitionsRowsExactly) {
  MorselDispatcher dispatcher(1000, 300);
  EXPECT_EQ(dispatcher.num_morsels(), 4u);
  uint64_t next_begin = 0;
  uint64_t index = 0;
  while (auto m = dispatcher.Next()) {
    EXPECT_EQ(m->index, index++);
    EXPECT_EQ(m->begin, next_begin);
    EXPECT_GT(m->end, m->begin);
    next_begin = m->end;
  }
  EXPECT_EQ(next_begin, 1000u);  // covered, no overlap, no gap
  EXPECT_EQ(index, 4u);
  EXPECT_FALSE(dispatcher.Next().has_value());  // stays exhausted
}

TEST(MorselDispatcherTest, EmptyScanYieldsNothing) {
  MorselDispatcher dispatcher(0, 128);
  EXPECT_EQ(dispatcher.num_morsels(), 0u);
  EXPECT_FALSE(dispatcher.Next().has_value());
}

TEST(MorselDispatcherTest, DefaultMorselRowsIsPageAlignedAndBounded) {
  // kMinMorselRows rounded up to whole pages, whatever the scan: less than
  // one page more than the minimum.
  const uint64_t rpp = 409;
  const uint64_t m = MorselDispatcher::MorselRows(0, rpp);
  EXPECT_EQ(m % rpp, 0u);
  EXPECT_GE(m, MorselDispatcher::kMinMorselRows);
  EXPECT_LT(m, MorselDispatcher::kMinMorselRows + rpp);
  // A big scan splits into several morsels per worker.
  const uint64_t rows = 2'000'000;
  const uint64_t num_morsels = (rows + m - 1) / m;
  EXPECT_GE(num_morsels, 4u);  // every worker has something to steal

  // A page wider than the minimum is one morsel; a page-less table still
  // gets the minimum.
  EXPECT_EQ(MorselDispatcher::MorselRows(0, 20'000), 20'000u);
  EXPECT_EQ(MorselDispatcher::MorselRows(0, 0),
            MorselDispatcher::kMinMorselRows);
}

TEST(MorselDispatcherTest, SetMorselRowsRoundUpToWholePages) {
  // A set size rounds up like the default, so no page straddles two
  // morsels: 1,000 rows over 682-row pages is two pages.
  EXPECT_EQ(MorselDispatcher::MorselRows(1'000, 682), 1'364u);
  EXPECT_EQ(MorselDispatcher::MorselRows(682, 682), 682u);
  EXPECT_EQ(MorselDispatcher::MorselRows(683, 682), 1'364u);
  EXPECT_EQ(MorselDispatcher::MorselRows(1, 682), 682u);
  EXPECT_EQ(MorselDispatcher::MorselRows(5, 0), 5u);
}

TEST(MorselDispatcherTest, WindowAppliesBackpressure) {
  MorselDispatcher dispatcher(10 * 64, 64, /*window=*/2);
  ASSERT_TRUE(dispatcher.Next().has_value());  // index 0
  ASSERT_TRUE(dispatcher.Next().has_value());  // index 1

  // Index 2 would run 2 ahead of the consumed floor (0): must block.
  auto blocked = std::async(std::launch::async, [&] {
    return dispatcher.Next();
  });
  EXPECT_EQ(blocked.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);

  dispatcher.MarkConsumed(0);
  ASSERT_EQ(blocked.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  auto m = blocked.get();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->index, 2u);
}

TEST(MorselPipelineTest, InlineModeConsumesInOrder) {
  DiskModel parent;
  ParallelContext ctx(parent, 1);
  MorselDispatcher dispatcher(100, 7);
  std::vector<uint64_t> consumed;
  RunMorselPipeline<uint64_t>(
      /*pool=*/nullptr, /*parallelism=*/1, dispatcher, ctx,
      [](const Morsel& m, DiskModel&, uint64_t& buf) { buf = m.index; },
      [&](const Morsel& m, const uint64_t& buf) {
        EXPECT_EQ(buf, m.index);
        consumed.push_back(m.index);
      });
  ASSERT_EQ(consumed.size(), dispatcher.num_morsels());
  for (size_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);
}

TEST(MorselPipelineTest, ParallelModeConsumesInOrderExactlyOnce) {
  ThreadPool pool(4);
  DiskModel parent;
  ParallelContext ctx(parent, 4);
  MorselDispatcher dispatcher(64 * 37, 37, /*window=*/8);
  std::atomic<uint64_t> produced{0};
  std::vector<uint64_t> consumed;  // consumer runs on this thread only
  RunMorselPipeline<uint64_t>(
      &pool, 4, dispatcher, ctx,
      [&](const Morsel& m, DiskModel&, uint64_t& buf) {
        buf = m.begin;
        produced.fetch_add(1, std::memory_order_relaxed);
      },
      [&](const Morsel& m, const uint64_t& buf) {
        EXPECT_EQ(buf, m.begin);
        consumed.push_back(m.index);
      });
  EXPECT_EQ(produced.load(), dispatcher.num_morsels());
  ASSERT_EQ(consumed.size(), dispatcher.num_morsels());
  for (size_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);
}

// Regression: a pool that refuses every TrySubmit (mid-destruction) must
// degrade to the inline serial path. The dispatcher's backpressure window
// here is far smaller than the morsel count, so the old fallback — which
// produced every morsel without consuming any — would block in Next()
// forever once the window filled.
TEST(MorselPipelineTest, PoolRefusalFallsBackInlineDespiteBackpressure) {
  auto pool = std::make_unique<ThreadPool>(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool->Submit([released] { released.wait(); });  // parks the only worker

  // Begin destruction on a side thread: shutdown flips, the join parks on
  // the blocked worker, and TrySubmit starts refusing.
  ThreadPool* raw = pool.get();
  std::thread destroyer([&] { pool.reset(); });
  while (raw->TrySubmit([] {}).ok()) std::this_thread::yield();

  DiskModel parent;
  ParallelContext ctx(parent, 2);
  MorselDispatcher dispatcher(100, 1, /*window=*/4);
  ASSERT_GT(dispatcher.num_morsels(), 4u);  // morsels >> window
  std::vector<uint64_t> consumed;
  RunMorselPipeline<uint64_t>(
      raw, /*parallelism=*/2, dispatcher, ctx,
      [](const Morsel& m, DiskModel&, uint64_t& buf) { buf = m.index; },
      [&](const Morsel& m, const uint64_t& buf) {
        EXPECT_EQ(buf, m.index);
        consumed.push_back(m.index);
      });
  ASSERT_EQ(consumed.size(), dispatcher.num_morsels());
  for (size_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);

  release.set_value();
  destroyer.join();
}

TEST(ParallelContextTest, MergeSumsWorkerStatsIntoParent) {
  DiskModel parent;
  parent.CountTuples(5);
  ParallelContext ctx(parent, 3);
  ctx.worker_disk(0).ReadSequential(1, 0);
  ctx.worker_disk(1).ReadSequential(1, 1);
  ctx.worker_disk(1).ReadRandom(1, 9);
  ctx.worker_disk(2).CountTuples(100);
  ctx.MergeIntoParent();
  EXPECT_EQ(parent.stats().seq_pages_read, 2u);
  EXPECT_EQ(parent.stats().rand_pages_read, 1u);
  EXPECT_EQ(parent.stats().tuples_processed, 105u);
  // Workers were reset by the merge.
  EXPECT_EQ(ctx.worker_disk(1).stats().seq_pages_read, 0u);
}

TEST(ParallelContextTest, FirstWorkerFaultWinsOnMerge) {
  DiskModel parent;
  ParallelContext ctx(parent, 2);
  FaultInjector::Instance().Enable(42);
  FaultSpec spec;
  spec.probability = 1.0;
  FaultInjector::Instance().Arm("disk.read_seq", spec);
  ctx.worker_disk(0).ReadSequential(1, 0);
  ctx.worker_disk(1).ReadSequential(1, 1);
  FaultInjector::Instance().Disable();
  ASSERT_TRUE(ctx.worker_disk(0).has_fault());
  ASSERT_TRUE(ctx.worker_disk(1).has_fault());
  ctx.MergeIntoParent();
  EXPECT_TRUE(parent.has_fault());
  EXPECT_EQ(parent.TakeFault().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(ctx.worker_disk(0).has_fault());  // consumed by the merge
  EXPECT_FALSE(ctx.worker_disk(1).has_fault());  // cleared, not leaked
}

TEST(ThreadPoolTest, TrySubmitSucceedsOnALivePool) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  Result<TaskHandle> handle = pool.TrySubmit([&] { ran.fetch_add(1); });
  ASSERT_TRUE(handle.ok());
  handle.value().Wait();
  EXPECT_EQ(ran.load(), 1);
}

// The shutdown-ordering regression test: a task racing pool destruction
// gets a typed kShuttingDown refusal from TrySubmit instead of an abort or
// a use-after-free (the query server relies on this when an Engine dies
// with queries in flight; verify.sh runs this file under TSan).
TEST(ThreadPoolTest, TrySubmitRefusedTypedDuringShutdown) {
  std::atomic<bool> destroying{false};
  std::atomic<bool> refused{false};
  StatusCode refusal_code = StatusCode::kOk;
  {
    ThreadPool pool(1);
    pool.Submit([&] {
      while (!destroying.load()) std::this_thread::yield();
      // The destructor is now flipping shutting_down_; keep trying until
      // the typed refusal arrives. Accepted no-ops still run and drain.
      for (;;) {
        Result<TaskHandle> r = pool.TrySubmit([] {});
        if (!r.ok()) {
          refusal_code = r.status().code();
          refused.store(true);
          return;
        }
        std::this_thread::yield();
      }
    });
    destroying.store(true);
  }  // ~ThreadPool joins: the worker must have been refused by now
  EXPECT_TRUE(refused.load());
  EXPECT_EQ(refusal_code, StatusCode::kShuttingDown);
}

TEST(FaultInjectorTest, ConcurrentHitsAreCountedExactly) {
  FaultInjector::Instance().Enable(7);
  FaultSpec spec;
  spec.probability = 0.0;  // count hits without firing
  FaultInjector::Instance().Arm("parallel.test_site", spec);
  {
    ThreadPool pool(4);
    std::vector<TaskHandle> handles;
    for (int t = 0; t < 4; ++t) {
      handles.push_back(pool.Submit([] {
        for (int i = 0; i < 1000; ++i) FaultHit("parallel.test_site");
      }));
    }
    for (TaskHandle& h : handles) h.Wait();
  }
  EXPECT_EQ(FaultInjector::Instance().hits("parallel.test_site"), 4000u);
  FaultInjector::Instance().Disable();
}

}  // namespace
}  // namespace starshare
