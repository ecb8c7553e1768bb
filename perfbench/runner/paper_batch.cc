// paper_batch: the paper's own traffic (§7, Table 2). One closed-loop client
// sends the MDX text of Tests 4-7 in a fixed rotation; each request parses
// the test's queries, plans them together with Global Greedy, lowers the
// plan and executes it as one shared batch. No result cache, engine
// parallelism 1, the paper's real-valued measures.
//
// Nearly all of a request is the shared scan, star-join filter and
// aggregation over A'B'C'D, so scan-kernel and storage changes show here;
// the server, cube, index and parallel layers do no work.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/paper_workload.h"
#include "obs/metrics.h"

namespace perfbench {

using namespace starshare;

namespace {

struct PaperTest {
  int number;
  std::vector<int> queries;  // paper query numbers
};

// Table 2's optimizer tests.
const std::vector<PaperTest> kTests = {
    {4, {1, 2, 3}}, {5, {2, 3, 5}}, {6, {6, 7, 8}}, {7, {1, 7, 9}}};

struct Request {
  std::string name;
  std::vector<std::string> mdx;
  std::vector<QueryResult> reference;  // by query id 1..n
};

std::vector<Request> MakeRequests(Engine& engine) {
  std::vector<Request> requests;
  for (const PaperTest& test : kTests) {
    Request r;
    r.name = "test" + std::to_string(test.number);
    for (const int q : test.queries) r.mdx.push_back(PaperWorkload::QueryMdx(q));
    // Reference: the same plan's members evaluated one at a time with no
    // shared operator, which folds every group in the same row order.
    Result<std::vector<DimensionalQuery>> queries = ParseEach(engine, r.mdx);
    SS_CHECK_MSG(queries.ok(), "%s", queries.status().ToString().c_str());
    const GlobalPlan plan =
        engine.Optimize(queries.value(), OptimizerKind::kGlobalGreedy);
    for (ExecutedQuery& e : engine.ExecuteUnshared(plan)) {
      SS_CHECK_MSG(e.ok(), "reference failed: %s",
                   e.status.ToString().c_str());
      r.reference.push_back(std::move(e.result));
    }
    requests.push_back(std::move(r));
  }
  engine.ConsumeIoStats();
  return requests;
}

// Pins the calling thread to each CPU of its starting affinity mask in
// turn; the mask is restored on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinNext() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Phase {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> latency_by_test;
  IoStats io;
  double modeled_io_ms = 0;
  uint64_t result_rows = 0;
  std::vector<double> peak_mem_bytes;
  std::vector<double> classes;
  uint64_t pool_tasks = 0;
  Ledger ledger;
};

// Runs whole rotations of the four tests (at least one) until `seconds`
// have passed, checking every result and page count outside the timed
// region, and adds the samples to `phase`.
//
// The vCPUs of a shared host can run at different speeds for minutes, and
// the scheduler leaves a single busy thread on one of them, so one run
// would read the speed of whichever vCPU it landed on. Each rotation is
// therefore pinned to the next allowed CPU in turn, which gives every run
// the same mix of CPUs.
void RunPhase(Engine& engine, const std::vector<Request>& requests,
              double seconds, bool traced, Phase& phase, Report& report) {
  obs::Counter& tasks = obs::Metrics().counter("thread_pool.tasks");
  const uint64_t tasks_before = tasks.value();
  const Clock::time_point start = Clock::now();
  CpuRotation cpus;
  do {
    cpus.PinNext();
    for (const Request& request : requests) {
      BatchRequest s = RunMdxBatch(engine, request.mdx, traced);
      const IoStats io = engine.ConsumeIoStats();
      ++report.attempted;
      bool ok = s.parsed && s.results.size() == request.reference.size();
      for (size_t i = 0; ok && i < s.results.size(); ++i) {
        ok = s.results[i].ok() &&
             BitIdentical(s.results[i].result, request.reference[i]);
        phase.result_rows += s.results[i].result.num_rows();
      }
      if (!ok) {
        ++report.failed;
        report.Problem(request.name + ": result differs from the reference");
        continue;
      }
      const PhysicalPlan& executed = engine.last_physical_plan();
      report.Fingerprint(request.name, IoFingerprint(executed.ShapeHash(), io));
      phase.latency_ms.push_back(s.latency_ms);
      phase.latency_by_test[request.name].push_back(s.latency_ms);
      phase.io += io;
      phase.modeled_io_ms += engine.ModeledIoMs(io);
      phase.peak_mem_bytes.push_back(
          static_cast<double>(PeakNodeBytes(executed)));
      phase.classes.push_back(static_cast<double>(s.classes));
      phase.ledger.Add(s.trace, &s.class_cpu_est_ms);
    }
  } while (MsBetween(start, Clock::now()) < seconds * 1000.0);
  phase.pool_tasks += tasks.value() - tasks_before;
}

}  // namespace

void RunPaperBatch(const Options& options, Report& report) {
  EngineConfig config;
  config.parallelism = 1;
  config.result_cache_entries = 0;
  const Dataset data{DataSeed(options.seed), false};

  if (!options.trace) {
    // Each set-up is followed by its share of the measured time, so the
    // samples span the whole run.
    std::vector<double> setup_s, slice_tails;
    std::vector<Request> requests;
    Phase p;
    for (int i = 0; i < kSetups; ++i) {
      double elapsed = 0;
      const std::unique_ptr<Engine> engine =
          BuildEngine(config, data, &elapsed);
      setup_s.push_back(elapsed);
      if (requests.empty()) requests = MakeRequests(*engine);
      Phase warmup;  // one untimed rotation lets lazy state settle
      RunPhase(*engine, requests, 0.0, false, warmup, report);
      const size_t before = p.latency_ms.size();
      RunPhase(*engine, requests, options.seconds / kSetups, false, p, report);
      slice_tails.push_back(
          TailValue({p.latency_ms.begin() + before, p.latency_ms.end()}));
    }
    const double n = static_cast<double>(p.latency_ms.size());
    double busy_ms = 0;
    for (const double l : p.latency_ms) busy_ms += l;
    report.Set("setup_s", Median(setup_s));
    report.Set("latency_p50_ms", Median(p.latency_ms));
    report.Set("latency_p99_ms", Median(slice_tails));
    report.Set("throughput_rps", busy_ms > 0 ? n / (busy_ms / 1000.0) : 0);
    report.Set("modeled_io_ms", n > 0 ? p.modeled_io_ms / n : 0);
    report.Set("peak_rss_mb", PeakRssMb());
    report.Info("requests", n, "count");
    for (const auto& [name, latency] : p.latency_by_test) {
      report.Info(name + ".p50_ms", Median(latency), "ms");
    }
    return;
  }

  double elapsed = 0;
  const std::unique_ptr<Engine> engine = BuildEngine(config, data, &elapsed);
  const std::vector<Request> requests = MakeRequests(*engine);
  Phase warmup, plain, p;
  RunPhase(*engine, requests, 0.0, false, warmup, report);
  RunPhase(*engine, requests, options.seconds / 2, false, plain, report);
  RunPhase(*engine, requests, options.seconds / 2, true, p, report);
  const double n = static_cast<double>(p.latency_ms.size());
  const Ledger& l = p.ledger;
  report.Set("mdx.parse_ms", l.WallPerRequest("bench.parse"));
  report.Set("opt.optimize_ms", l.WallPerRequest("bench.optimize"));
  report.Set("opt.classes_per_request", Mean(p.classes));
  report.Set("plan.lower_ms", l.WallPerRequest("bench.lower"));
  report.Set("exec.execute_ms", l.WallPerRequest("bench.execute"));
  PublishExecLayers(l, report);
  PublishReadWork(p.io, n, p.result_rows, report);
  PublishReadPages(p.io, n, report);
  report.Set("exec.peak_mem_bytes", Median(p.peak_mem_bytes));
  report.Set("parallel.tasks_per_request",
             static_cast<double>(p.pool_tasks) / n);
  report.Set("obs.trace_overhead_pct",
             (Median(p.latency_ms) / Median(plain.latency_ms) - 1.0) * 100.0);
  report.Info("traced_requests", n, "count");
}

}  // namespace perfbench
