// cube_maintain: cube reads beside fact appends. One closed-loop client,
// integer-valued measures, engine parallelism 2. Each cycle appends one
// small delta with AppendFacts, then sends kCubesPerCycle copies of one
// 3-d MDX WITH CUBE request (8 lattice levels: one base batch plus 7
// rollups derived in memory).
//
// Reads spend their time in hash aggregation, lattice rollups and the
// morsel pipeline's ordered fold; writes in incremental view refresh plus the
// index and statistics rebuild. Both share cube/ and storage/, so a read
// gain that slows refresh shows in throughput_rps, whose wall time includes
// the appends.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "query/cube_query.h"

namespace perfbench {

using namespace starshare;

namespace {

constexpr uint64_t kDeltaRows = 2000;
constexpr int kCubesPerCycle = 160;

constexpr const char* kCubeMdx =
    "{A'.MEMBERS} ON COLUMNS {B'.MEMBERS} ON ROWS {C'.MEMBERS} ON PAGES "
    "CONTEXT ABCD FILTER (D''.D1) WITH CUBE;";

struct Phase {
  std::vector<double> read_ms;
  std::vector<double> append_ms;
  IoStats read_io;
  double modeled_io_ms = 0;  // reads and appends
  uint64_t result_rows = 0;
  std::vector<double> peak_mem_bytes;
  std::vector<double> write_amp;
  uint64_t pool_tasks = 0;
  size_t base_levels = 0;
  size_t rollup_levels = 0;
  Ledger reads;
  Ledger appends;
};

// The cycles run on one engine. Every engine starts from the same data and
// appends the same deltas, so cycle k's page counts repeat on each.
class CubeWorkload {
 public:
  CubeWorkload(Engine& engine, const Options& options, Report& report)
      : engine_(engine), options_(options), report_(report) {}

  // Computes the reference for the current data: every lattice level
  // evaluated on its own by ExecuteNaive. Untimed.
  void TakeReference() {
    Result<CubeQuery> cube = engine_.ParseCube(kCubeMdx);
    SS_CHECK_MSG(cube.ok(), "%s", cube.status().ToString().c_str());
    const std::vector<DimensionalQuery> levels =
        cube.value().ExpandLevels(engine_.schema(), 1).value();
    reference_.clear();
    for (ExecutedQuery& e : engine_.ExecuteNaive(levels)) {
      SS_CHECK_MSG(e.ok(), "reference failed: %s",
                   e.status.ToString().c_str());
      reference_[e.query->target().ToString(engine_.schema())] =
          std::move(e.result);
    }
    engine_.ConsumeIoStats();
  }

  // One read (outside any cycle) to let lazy state settle.
  void WarmUp() {
    TakeReference();
    Phase unused;
    Read(false, unused, "warmup");
  }

  // Whole cycles (at least one) until `seconds` have passed; the samples
  // are added to `phase`.
  void Run(double seconds, bool traced, Phase& phase) {
    const Clock::time_point start = Clock::now();
    do {
      Cycle(traced, phase);
    } while (MsBetween(start, Clock::now()) < seconds * 1000.0);
  }

 private:
  void Cycle(bool traced, Phase& phase) {
    const std::string key = std::to_string(cycle_++);
    {
      const Clock::time_point start = Clock::now();
      RequestTrace trace(engine_, traced, "bench.append");
      Status status;
      {
        obs::ScopedSpan span("bench.append_facts");
        status = engine_.AppendFacts(
            {.num_rows = kDeltaRows,
             .seed = DataSeed(options_.seed) + cycle_,
             .integer_measures = true});
      }
      phase.appends.Add(trace.Finish());
      const double ms = MsBetween(start, Clock::now());
      const IoStats io = engine_.ConsumeIoStats();
      ++report_.attempted;
      if (!status.ok()) {
        ++report_.failed;
        report_.Problem("AppendFacts failed: " + status.ToString());
        return;
      }
      phase.append_ms.push_back(ms);
      phase.modeled_io_ms += engine_.ModeledIoMs(io);
      const double fact_pages =
          static_cast<double>(kDeltaRows) /
          static_cast<double>(engine_.base_view()->table().rows_per_page());
      phase.write_amp.push_back(static_cast<double>(io.pages_written) /
                                fact_pages);
      report_.Fingerprint("append" + key, IoFingerprint("-", io));
    }
    TakeReference();
    for (int r = 0; r < kCubesPerCycle; ++r) Read(traced, phase, "cube" + key);
  }

  // One timed cube request, checked and fingerprinted under `name`.
  void Read(bool traced, Phase& phase, const std::string& name) {
    obs::Counter& tasks = obs::Metrics().counter("thread_pool.tasks");
    const uint64_t tasks_before = tasks.value();
    const Clock::time_point start = Clock::now();
    RequestTrace trace(engine_, traced, "bench.request");
    Result<CubeQuery> cube = Status::Internal("not parsed");
    {
      obs::ScopedSpan span("bench.parse");
      cube = engine_.ParseCube(kCubeMdx);
    }
    Result<CubeExecution> exec = Status::Internal("not run");
    if (cube.ok()) {
      obs::ScopedSpan span("bench.execute_cube");
      exec = engine_.ExecuteCube(cube.value(), OptimizerKind::kGlobalGreedy);
    }
    const obs::Trace recorded = trace.Finish();
    const double ms = MsBetween(start, Clock::now());
    const uint64_t pool_tasks = tasks.value() - tasks_before;
    const IoStats io = engine_.ConsumeIoStats();
    ++report_.attempted;

    bool ok = exec.ok() && exec.value().all_ok() &&
              exec.value().results.size() == reference_.size();
    uint64_t rows = 0;
    for (size_t i = 0; ok && i < exec.value().results.size(); ++i) {
      const ExecutedQuery& e = exec.value().results[i];
      const auto it =
          reference_.find(e.query->target().ToString(engine_.schema()));
      ok = it != reference_.end() && BitIdentical(e.result, it->second);
      rows += e.result.num_rows();
    }
    if (!ok) {
      ++report_.failed;
      report_.Problem(name + ": a cube level differs from ExecuteNaive");
      return;
    }
    const PhysicalPlan& executed = engine_.last_physical_plan();
    phase.read_ms.push_back(ms);
    phase.read_io += io;
    phase.modeled_io_ms += engine_.ModeledIoMs(io);
    phase.result_rows += rows;
    phase.peak_mem_bytes.push_back(
        static_cast<double>(PeakNodeBytes(executed)));
    phase.pool_tasks += pool_tasks;
    phase.base_levels = exec.value().lattice.NumBase();
    phase.rollup_levels = exec.value().lattice.NumRollups();
    phase.reads.Add(recorded);
    report_.Fingerprint(name, IoFingerprint(executed.ShapeHash(), io));
  }

  Engine& engine_;
  const Options& options_;
  Report& report_;
  uint64_t cycle_ = 0;
  std::map<std::string, QueryResult> reference_;  // by level group-by
};

}  // namespace

void RunCubeMaintain(const Options& options, Report& report) {
  EngineConfig config;
  config.parallelism = 2;
  config.result_cache_entries = 0;
  const Dataset data{DataSeed(options.seed), true};

  if (!options.trace) {
    // Each set-up is followed by its share of the measured time, so the
    // samples span the whole run.
    std::vector<double> setup_s, slice_tails;
    Phase p;
    for (int i = 0; i < kSetups; ++i) {
      double elapsed = 0;
      const std::unique_ptr<Engine> engine =
          BuildEngine(config, data, &elapsed);
      setup_s.push_back(elapsed);
      CubeWorkload workload(*engine, options, report);
      workload.WarmUp();
      const size_t before = p.read_ms.size();
      workload.Run(options.seconds / kSetups, false, p);
      slice_tails.push_back(
          TailValue({p.read_ms.begin() + before, p.read_ms.end()}));
    }
    const double reads = static_cast<double>(p.read_ms.size());
    double busy_ms = 0;
    for (const double l : p.read_ms) busy_ms += l;
    for (const double l : p.append_ms) busy_ms += l;
    report.Set("setup_s", Median(setup_s));
    report.Set("latency_p50_ms", Median(p.read_ms));
    report.Set("latency_p99_ms", Median(slice_tails));
    report.Set("throughput_rps", busy_ms > 0 ? reads / (busy_ms / 1000.0) : 0);
    report.Set("modeled_io_ms", reads > 0 ? p.modeled_io_ms / reads : 0);
    report.Set("peak_rss_mb", PeakRssMb());
    report.Info("reads", reads, "count");
    report.Info("appends", static_cast<double>(p.append_ms.size()), "count");
    report.Info("write_p50_ms", Median(p.append_ms), "ms");
    return;
  }

  double elapsed = 0;
  const std::unique_ptr<Engine> engine = BuildEngine(config, data, &elapsed);
  CubeWorkload workload(*engine, options, report);
  workload.WarmUp();
  Phase plain, p;
  workload.Run(options.seconds / 2, false, plain);
  workload.Run(options.seconds / 2, true, p);
  const double n = static_cast<double>(p.read_ms.size());
  const Ledger& l = p.reads;
  report.Set("mdx.parse_ms", l.WallPerRequest("bench.parse"));
  report.Set("opt.optimize_ms", l.WallPerRequest("engine.optimize"));
  report.Set("opt.classes_per_request",
             l.CounterPerRequest("engine.optimize", "classes"));
  report.Set("exec.execute_ms", l.WallPerRequest("bench.execute_cube"));
  report.Set("cube.execute_ms", l.WallPerRequest("bench.execute_cube"));
  PublishExecLayers(l, report);
  PublishReadWork(p.read_io, n, p.result_rows, report);
  report.Set("exec.peak_mem_bytes", Median(p.peak_mem_bytes));
  report.Set("cube.base_levels", static_cast<double>(p.base_levels));
  report.Set("cube.rollup_levels", static_cast<double>(p.rollup_levels));
  const double refresh = p.appends.WallPerRequest("view.refresh");
  report.Set("cube.refresh_ms", refresh);
  report.Set("cube.append_other_ms", Mean(p.append_ms) - refresh);
  std::vector<double> writes = plain.append_ms;
  writes.insert(writes.end(), p.append_ms.begin(), p.append_ms.end());
  report.Set("write_p50_ms", Median(writes));
  PublishReadPages(p.read_io, n, report);
  report.Set("storage.write_amp", Median(p.write_amp));
  report.Set("parallel.tasks_per_request",
             static_cast<double>(p.pool_tasks) / n);
  report.Set("obs.trace_overhead_pct",
             (Median(p.read_ms) / Median(plain.read_ms) - 1.0) * 100.0);
  report.Info("traced_reads", n, "count");
  report.Info("traced_appends", static_cast<double>(p.append_ms.size()),
              "count");
}

}  // namespace perfbench
