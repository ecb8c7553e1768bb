// The disk model: converts page counts into modeled milliseconds, and is the
// charging point through which every operator reports its page touches.
//
// Substitution note (see DESIGN.md §2): the paper measured wall-clock time
// on a 1998 disk with cold caches. StarShare's tables are in memory, so raw
// wall time under-weights I/O. Every experiment therefore reports both the
// measured CPU wall time and a modeled time = CPU time + modeled I/O time,
// where modeled I/O time is computed from *exact* page counts with
// 1998-class per-page costs. Both sides of every comparison use the same
// metric, so ratios and crossovers are preserved.

#ifndef STARSHARE_STORAGE_DISK_MODEL_H_
#define STARSHARE_STORAGE_DISK_MODEL_H_

#include <cstdint>

#include "common/fault_injector.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace starshare {

// Per-page timing constants. Defaults approximate the paper's Quantum
// Fireball-era disk: ~8 MB/s sequential (1 ms per 8 KiB page) and ~10 ms per
// random page (seek + rotational latency).
struct DiskTimings {
  double seq_page_ms = 1.0;
  double rand_page_ms = 10.0;
  double index_page_ms = 1.0;  // bitmap segments are read sequentially
  double write_page_ms = 1.0;

  // Modeled I/O milliseconds for a set of counters.
  double ModeledIoMs(const IoStats& stats) const {
    return static_cast<double>(stats.seq_pages_read) * seq_page_ms +
           static_cast<double>(stats.rand_pages_read) * rand_page_ms +
           static_cast<double>(stats.index_pages_read) * index_page_ms +
           static_cast<double>(stats.pages_written) * write_page_ms;
  }
};

// Charging interface handed to operators. Owns the counters for one
// execution scope; optionally consults a buffer pool so resident pages are
// counted as cache hits instead of disk reads.
class DiskModel {
 public:
  explicit DiskModel(DiskTimings timings = DiskTimings())
      : timings_(timings) {}

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  void AttachBufferPool(BufferPool* pool) { pool_ = pool; }
  BufferPool* buffer_pool() const { return pool_; }

  // One page read as part of a sequential scan of `table_id`.
  void ReadSequential(uint32_t table_id, uint64_t page) {
    if (FaultInjector::enabled()) MaybeInjectFault("disk.read_seq");
    if (pool_ != nullptr && pool_->Access(table_id, page)) {
      ++stats_.cached_pages;
    } else {
      ++stats_.seq_pages_read;
    }
  }

  // One page read at a random position (bitmap probe).
  void ReadRandom(uint32_t table_id, uint64_t page) {
    if (FaultInjector::enabled()) MaybeInjectFault("disk.read_rand");
    if (pool_ != nullptr && pool_->Access(table_id, page)) {
      ++stats_.cached_pages;
    } else {
      ++stats_.rand_pages_read;
    }
  }

  // `pages` pages of bitmap-index data. Index segments are not cached (they
  // are read once per query in all our plans).
  void ReadIndexPages(uint64_t pages) {
    if (FaultInjector::enabled()) MaybeInjectFault("disk.read_index");
    stats_.index_pages_read += pages;
  }

  void WritePages(uint64_t pages) { stats_.pages_written += pages; }

  void CountTuples(uint64_t n) { stats_.tuples_processed += n; }
  void CountHashProbes(uint64_t n) { stats_.hash_probes += n; }

  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = IoStats(); }

  const DiskTimings& timings() const { return timings_; }
  double ModeledIoMs() const { return timings_.ModeledIoMs(stats_); }

  // ---- Fault surfacing ----------------------------------------------------
  // The page-touch methods above are called from deep inside scan/probe
  // template loops, so an injected device fault cannot return an error
  // directly; it is latched here and the class pipeline
  // (exec/operators/class_pipeline.h) and the server's continuous scan
  // consume it with TakeFault() after the loop. The first fault per scope
  // wins.

  bool has_fault() const { return has_fault_; }

  // Returns and clears the pending fault (OK if none).
  Status TakeFault() {
    if (!has_fault_) return Status::Ok();
    has_fault_ = false;
    Status out = std::move(fault_);
    fault_ = Status();
    return out;
  }

  // Folds a parallel worker's counters into this model and adopts the
  // worker's latched fault if none is pending here (first worker wins —
  // workers are merged in worker-index order by ParallelContext). The
  // worker is reset. Each DiskModel instance is still single-threaded;
  // parallelism comes from giving every worker its own instance.
  void MergeChild(DiskModel& child) {
    stats_ += child.stats_;
    child.stats_ = IoStats();
    if (child.has_fault_) {
      if (!has_fault_) {
        has_fault_ = true;
        fault_ = std::move(child.fault_);
      }
      child.has_fault_ = false;
      child.fault_ = Status();
    }
  }

 private:
  void MaybeInjectFault(const char* site) {
    if (has_fault_) return;
    if (FaultHit(site)) {
      has_fault_ = true;
      fault_ = Status::Unavailable(std::string("injected device fault at ") +
                                   site);
    }
  }

  DiskTimings timings_;
  BufferPool* pool_ = nullptr;
  IoStats stats_;
  bool has_fault_ = false;
  Status fault_;
};

}  // namespace starshare

#endif  // STARSHARE_STORAGE_DISK_MODEL_H_
