// server_open: open-loop traffic through the continuous query server. The
// calling thread is the generator: it sends seeded Poisson arrivals over
// kSessions sessions, each request one MDX query drawn with Zipf skew from
// a pool of paper queries 1-9 (with their FILTER member varied) and a
// selective class filtered on leaf-level D that plans as a bitmap index
// probe. A collector thread timestamps completions; every latency runs from
// the request's due time, so a stalled generator or server charges the
// wait to every request behind it. Together with the server's controller
// thread that is three threads.
//
// The result cache holds a small fraction of the pool, so its hit rate
// stays well below one half and the median request is a cold one. This is
// the only workload through src/server (join-or-open admission, late
// attach), the result cache and src/index; per-query parse and optimize
// are a large share of its time.

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/str_util.h"
#include "core/paper_workload.h"
#include "obs/metrics.h"
#include "server/query_server.h"

namespace perfbench {

using namespace starshare;

namespace {

constexpr double kRateQps = 60.0;  // the fixed rate, below the knee
// The rate ladder for max_rate_qps, kLadderSeconds per rung, and the p99
// latency limit a rung must meet.
const std::vector<double> kLadderQps = {40, 80, 120, 160, 200, 240};
constexpr double kLadderSeconds = 2.0;
constexpr double kLatencyLimitMs = 50.0;
constexpr int kSessions = 3;
constexpr size_t kCacheEntries = 4;
constexpr double kZipfS = 0.9;
// Requests drawn for the traced single-request pass of a traced run.
constexpr int kProbeDraws = 120;
// The generator counts as fallen behind when its p99 lateness exceeds one
// mean inter-arrival gap: below that it still offers the intended rate, and
// the lateness itself is charged to latency, which runs from the due time.
constexpr double kMaxLateP99Ms = 1000.0 / kRateQps;

// The request classes of the pool, each with a fixed share of the traffic
// so every seed sends the same mix: the non-selective paper queries (shared
// hash scans), the selective ones, and a class filtered on leaf-level D for
// which the optimizer picks a bitmap index probe on A'B'C'D.
struct RequestClass {
  std::vector<std::string> mdx;  // in Zipf rank order, hottest first
  double share;
};

std::vector<RequestClass> PoolClasses() {
  const auto paper = [](const std::vector<int>& queries) {
    std::vector<std::string> out;
    const std::string filter = "(D.DD1)";
    for (int dd = 1; dd <= 4; ++dd) {
      for (const int q : queries) {
        std::string text = PaperWorkload::QueryMdx(q);
        text.replace(text.find(filter), filter.size(),
                     StrFormat("(D.DD%d)", dd));
        out.push_back(text);
      }
    }
    return out;
  };
  std::vector<std::string> leaf;
  for (int k = 0; k < 12; ++k) {
    leaf.push_back(StrFormat(
        "{A''.A%d.CHILDREN} on COLUMNS {B''.B%d} on ROWS {C''.C%d} on PAGES "
        "CONTEXT ABCD FILTER (D.DDD%d);",
        1 + k % 3, 1 + (k / 3) % 3, 1 + (k / 2) % 3, 1 + (97 * k + 5) % 1400));
  }
  return {{paper({1, 2, 3, 4, 9}), 0.4},
          {paper({5, 6, 7, 8}), 0.3},
          {std::move(leaf), 0.3}};
}

struct PoolEntry {
  std::string mdx;
  QueryResult reference;
};

// Seeded traffic over the pool: Poisson arrivals, each request's class
// taken from a shuffled sequence with exactly the class shares, and its
// query drawn with Zipf skew within the class.
class Traffic {
 public:
  // classes[c] holds pool indices in rank order.
  Traffic(std::vector<std::vector<size_t>> classes, std::vector<double> shares,
          uint64_t seed)
      : classes_(std::move(classes)), shares_(std::move(shares)), rng_(seed) {}

  // One request's pool index, its class drawn by share.
  size_t Draw() {
    double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    size_t c = 0;
    while (c + 1 < shares_.size() && u >= shares_[c]) u -= shares_[c++];
    return DrawFrom(c);
  }

  // `count` requests with the class shares met exactly.
  std::vector<size_t> Requests(size_t count) {
    std::vector<size_t> class_of;
    for (size_t c = 0; c < classes_.size(); ++c) {
      const size_t n = c + 1 == classes_.size()
                           ? count - class_of.size()
                           : static_cast<size_t>(
                                 shares_[c] * static_cast<double>(count) + 0.5);
      class_of.insert(class_of.end(), std::min(n, count - class_of.size()), c);
    }
    std::shuffle(class_of.begin(), class_of.end(), rng_);
    for (size_t& c : class_of) c = DrawFrom(c);
    return class_of;
  }

  // `count` arrivals at `rate_qps`: exponential gaps rescaled so the
  // schedule spans exactly count / rate seconds, which keeps the offered
  // rate identical across seeds.
  std::vector<double> DueMs(size_t count, double rate_qps) {
    std::exponential_distribution<double> gap(1.0);
    std::vector<double> due(count);
    double t = 0;
    for (double& d : due) {
      d = t;
      t += gap(rng_);
    }
    const double scale = 1000.0 * static_cast<double>(count) / rate_qps / t;
    for (double& d : due) d *= scale;
    return due;
  }

 private:
  size_t DrawFrom(size_t c) {
    const std::vector<size_t>& members = classes_[c];
    double sum = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    }
    double u = std::uniform_real_distribution<double>(0, sum)(rng_);
    for (size_t i = 0; i < members.size(); ++i) {
      u -= 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      if (u < 0) return members[i];
    }
    return members.back();
  }

  std::vector<std::vector<size_t>> classes_;
  std::vector<double> shares_;
  std::mt19937_64 rng_;
};

// One request of an open-loop phase.
struct Flight {
  size_t pool_index = 0;
  Clock::time_point due;
  double late_ms = 0;
  double parse_ms = 0;
  double submit_us = 0;
  QueryHandle handle;
  double latency_ms = 0;  // due -> completion seen by the collector
  bool parsed = true;
};

struct OpenLoopResult {
  std::vector<Flight> flights;
  double wall_s = 0;  // first due -> last completion
  size_t queue_depth_max = 0;
  IoStats io;
  uint64_t admitted = 0;
  uint64_t classes_opened = 0;
};

// The traffic of one engine. Every engine of a run loads the same data, so
// the pool and its references are shared.
class ServerWorkload {
 public:
  ServerWorkload(Engine& engine, const std::vector<PoolEntry>& pool,
                 Traffic& traffic)
      : engine_(engine), pool_(pool), traffic_(traffic) {}

  // Opens the sessions; starts the server on first use.
  void Start() {
    for (int i = 0; i < kSessions; ++i) {
      sessions_.push_back(engine_.OpenSession());
    }
  }

  // Sends count arrivals at rate_qps and waits for every completion.
  OpenLoopResult Run(double rate_qps, double seconds) {
    const size_t count =
        std::max<size_t>(1, static_cast<size_t>(rate_qps * seconds + 0.5));
    const std::vector<double> due_ms = traffic_.DueMs(count, rate_qps);
    const std::vector<size_t> requests = traffic_.Requests(count);
    OpenLoopResult out;
    out.flights.resize(count);
    for (size_t i = 0; i < count; ++i) out.flights[i].pool_index = requests[i];

    QueryServer& server = engine_.server();
    const uint64_t admitted_before = server.admitted();
    const uint64_t classes_before = server.classes_opened();
    engine_.ConsumeIoStats();  // the server is idle between phases
    obs::Gauge& queue_depth = obs::Metrics().gauge("server.queue_depth");

    std::mutex mu;
    size_t sent = 0;  // guarded by mu: flights [0, sent) carry a handle
    Clock::time_point last_done;
    std::thread collector([&] {
      std::vector<size_t> pending;
      size_t seen = 0;
      size_t completed = 0;
      while (completed < count) {
        {
          std::lock_guard<std::mutex> lock(mu);
          for (; seen < sent; ++seen) pending.push_back(seen);
        }
        bool any = false;
        for (size_t i = 0; i < pending.size();) {
          Flight& f = out.flights[pending[i]];
          if (!f.parsed || f.handle.done()) {
            const Clock::time_point now = Clock::now();
            f.latency_ms = MsBetween(f.due, now);
            last_done = now;
            pending[i] = pending.back();
            pending.pop_back();
            ++completed;
            any = true;
          } else {
            ++i;
          }
        }
        if (!any) std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });

    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < count; ++i) {
      Flight& f = out.flights[i];
      f.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(due_ms[i]));
      std::this_thread::sleep_until(f.due);
      const Clock::time_point send = Clock::now();
      f.late_ms = MsBetween(f.due, send);
      Result<std::vector<DimensionalQuery>> parsed =
          engine_.ParseMdx(pool_[f.pool_index].mdx);
      const Clock::time_point parsed_at = Clock::now();
      f.parse_ms = MsBetween(send, parsed_at);
      f.parsed = parsed.ok() && parsed.value().size() == 1;
      if (f.parsed) {
        f.handle = sessions_[i % sessions_.size()].Submit(parsed.value()[0]);
        f.submit_us = MsBetween(parsed_at, Clock::now()) * 1000.0;
        out.queue_depth_max =
            std::max(out.queue_depth_max,
                     static_cast<size_t>(std::max<int64_t>(
                         0, queue_depth.value())));
      }
      std::lock_guard<std::mutex> lock(mu);
      sent = i + 1;
    }
    collector.join();
    out.wall_s = MsBetween(start, last_done) / 1000.0;
    out.io = engine_.ConsumeIoStats();
    out.admitted = server.admitted() - admitted_before;
    out.classes_opened = server.classes_opened() - classes_before;
    return out;
  }

  // Checks every outcome against its reference; returns the latencies with
  // failed or wrong requests counted as missing any limit.
  std::vector<double> Check(const OpenLoopResult& run, Report& report) {
    std::vector<double> latency;
    for (const Flight& f : run.flights) {
      ++report.attempted;
      bool ok = f.parsed;
      if (ok) {
        QueryHandle handle = f.handle;
        const QueryOutcome& outcome = handle.Await();
        ok = outcome.ok() &&
             BitIdentical(outcome.result, pool_[f.pool_index].reference);
        if (!ok) {
          report.Problem("server query " + std::to_string(f.pool_index) +
                         (outcome.ok() ? ": result differs from the reference"
                                       : ": " + outcome.status.ToString()));
        }
      } else {
        report.Problem("pool query " + std::to_string(f.pool_index) +
                       " did not parse");
      }
      if (!ok) ++report.failed;
      latency.push_back(ok ? f.latency_ms : HUGE_VAL);
    }
    return latency;
  }

  // Draws requests like the open loop but runs each through the engine's
  // synchronous path (parse, optimize, lower, execute) on this thread,
  // once untraced and once traced, while the server is idle. Gives the
  // per-layer times the server's controller thread cannot trace.
  void Probe(Report& report) {
    Ledger ledger;
    std::vector<double> plain_ms, traced_ms, classes, peak_mem;
    IoStats io;
    uint64_t result_rows = 0;
    size_t probe_plans = 0;
    for (int i = 0; i < kProbeDraws; ++i) {
      const PoolEntry& entry = pool_[traffic_.Draw()];
      // Each drawn request runs twice, untraced and traced, in alternating
      // order so neither side always finds the caches warm.
      for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
        BatchRequest r = RunMdxBatch(engine_, {entry.mdx}, traced);
        const IoStats request_io = engine_.ConsumeIoStats();
        ++report.attempted;
        if (r.results.size() != 1 || !r.results[0].ok() ||
            !BitIdentical(r.results[0].result, entry.reference)) {
          ++report.failed;
          report.Problem("probe request differs from the reference");
          continue;
        }
        if (!traced) {
          plain_ms.push_back(r.latency_ms);
          continue;
        }
        traced_ms.push_back(r.latency_ms);
        const PhysicalPlan& executed = engine_.last_physical_plan();
        for (const PhysicalNode& node : executed.nodes()) {
          if (node.kind == PhysOpKind::kIndexUnionProbe) ++probe_plans;
        }
        ledger.Add(r.trace, &r.class_cpu_est_ms);
        io += request_io;
        result_rows += r.results[0].result.num_rows();
        classes.push_back(static_cast<double>(r.classes));
        peak_mem.push_back(static_cast<double>(PeakNodeBytes(executed)));
      }
    }
    const double n = static_cast<double>(ledger.requests());
    report.Set("opt.optimize_ms", ledger.WallPerRequest("bench.optimize"));
    report.Set("opt.classes_per_request", Mean(classes));
    report.Set("plan.lower_ms", ledger.WallPerRequest("bench.lower"));
    report.Set("exec.execute_ms", ledger.WallPerRequest("bench.execute"));
    PublishExecLayers(ledger, report);
    PublishReadWork(io, n, result_rows, report);
    report.Set("exec.peak_mem_bytes", Median(peak_mem));
    report.Set("obs.trace_overhead_pct",
               (Median(traced_ms) / Median(plain_ms) - 1.0) * 100.0);
    report.Info("probe_index_plans_frac",
                static_cast<double>(probe_plans) / kProbeDraws, "ratio");
  }

 private:
  Engine& engine_;
  const std::vector<PoolEntry>& pool_;
  Traffic& traffic_;
  std::vector<Session> sessions_;
};

// Parses every pool query and computes its reference: the single-query
// plan evaluated with no shared operator. Fills `classes` with the pool
// indices of each request class.
std::vector<PoolEntry> MakePool(Engine& engine,
                                std::vector<std::vector<size_t>>* classes,
                                std::vector<double>* shares) {
  std::vector<PoolEntry> pool;
  for (RequestClass& cls : PoolClasses()) {
    classes->emplace_back();
    shares->push_back(cls.share);
    for (std::string& mdx : cls.mdx) {
      Result<std::vector<DimensionalQuery>> parsed = engine.ParseMdx(mdx);
      SS_CHECK_MSG(parsed.ok() && parsed.value().size() == 1,
                   "pool query: %s", mdx.c_str());
      const GlobalPlan plan =
          engine.Optimize(parsed.value(), OptimizerKind::kGlobalGreedy);
      std::vector<ExecutedQuery> ref = engine.ExecuteUnshared(plan);
      SS_CHECK_MSG(ref.size() == 1 && ref[0].ok(), "pool reference failed");
      classes->back().push_back(pool.size());
      pool.push_back({std::move(mdx), std::move(ref[0].result)});
    }
  }
  engine.ConsumeIoStats();
  return pool;
}

double SecondsOf(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return MsBetween(start, Clock::now()) / 1000.0;
}

// The rate ladder: max_rate_qps is the highest rate whose p99 meets
// kLatencyLimitMs and whose last request still completes within the limit
// (no growing backlog).
void RunLadder(ServerWorkload& workload, Report& report) {
  double max_rate = 0;
  for (const double rate : kLadderQps) {
    const OpenLoopResult rung = workload.Run(rate, kLadderSeconds);
    const std::vector<double> latency = workload.Check(rung, report);
    const bool backlog = latency.back() > kLatencyLimitMs;
    const double p99 = TailValue(latency);
    report.Info(StrFormat("ladder_p99_ms@%.0f", rate), p99, "ms");
    if (p99 > kLatencyLimitMs || backlog) break;
    max_rate = rate;
  }
  report.Set("max_rate_qps", max_rate);
}

// The open-loop figures of one or more phases.
struct OpenLoopTotals {
  std::vector<double> latency;  // failed requests count as missing any limit
  std::vector<double> slice_tails;  // one TailValue per phase
  std::vector<double> late, parse, submit_us;
  double requests = 0, cache_hits = 0, attached = 0, degraded = 0;
  double wall_s = 0;
  double modeled_io_ms = 0;
  IoStats io;
  uint64_t admitted = 0, classes_opened = 0;
  size_t queue_depth_max = 0;

  void Add(const Engine& engine, const OpenLoopResult& run,
           const std::vector<double>& checked_latency) {
    latency.insert(latency.end(), checked_latency.begin(),
                   checked_latency.end());
    slice_tails.push_back(TailValue(checked_latency));
    for (const Flight& f : run.flights) {
      late.push_back(f.late_ms);
      parse.push_back(f.parse_ms);
      submit_us.push_back(f.submit_us);
      if (!f.parsed) continue;
      QueryHandle handle = f.handle;
      const QueryOutcome& outcome = handle.Await();
      cache_hits += outcome.cache_hit ? 1 : 0;
      attached += outcome.attached_late ? 1 : 0;
      degraded += outcome.degraded ? 1 : 0;
    }
    requests += static_cast<double>(run.flights.size());
    wall_s += run.wall_s;
    modeled_io_ms += engine.ModeledIoMs(run.io);
    io += run.io;
    admitted += run.admitted;
    classes_opened += run.classes_opened;
    queue_depth_max = std::max(queue_depth_max, run.queue_depth_max);
  }
};

}  // namespace

void RunServerOpen(const Options& options, Report& report) {
  EngineConfig config;
  config.parallelism = 1;
  config.result_cache_entries = kCacheEntries;
  config.server.optimizer = OptimizerKind::kGlobalGreedy;
  // Integer-valued measures make every SUM exact, so a result is
  // bit-identical to the reference whichever view the admission round
  // plans it on.
  const Dataset data{DataSeed(options.seed), true};

  // Each set-up (engine, then server start) is followed by its share of the
  // measured time, so the samples span the whole run. The pool references
  // are computed on the first engine before its server starts, outside
  // set-up time.
  const int setups = options.trace ? 1 : kSetups;
  const double slice_seconds =
      options.trace ? options.seconds / 2 : options.seconds / setups;
  std::vector<double> setup_s;
  std::vector<PoolEntry> pool;
  std::optional<Traffic> traffic;
  OpenLoopTotals totals;
  for (int i = 0; i < setups; ++i) {
    double elapsed = 0;
    const std::unique_ptr<Engine> engine = BuildEngine(config, data, &elapsed);
    if (pool.empty()) {
      std::vector<std::vector<size_t>> classes;
      std::vector<double> shares;
      pool = MakePool(*engine, &classes, &shares);
      traffic.emplace(std::move(classes), std::move(shares),
                      TrafficSeed(options.seed));
    }
    ServerWorkload workload(*engine, pool, *traffic);
    if (options.trace) workload.Probe(report);
    elapsed += SecondsOf([&] { workload.Start(); });
    setup_s.push_back(elapsed);
    const OpenLoopResult run = workload.Run(kRateQps, slice_seconds);
    totals.Add(*engine, run, workload.Check(run, report));
    if (options.trace) RunLadder(workload, report);
  }

  const double n = totals.requests;
  const double late_p99 = TailValue(totals.late);
  if (late_p99 > kMaxLateP99Ms) {
    // Latencies run from due times the generator did not keep, so the
    // figures cannot be trusted: the run fails.
    report.Problem(StrFormat("invalid run: the generator fell behind its "
                             "schedule (late p99 %.2f ms > %.1f ms)",
                             late_p99, kMaxLateP99Ms));
  }
  if (!options.trace) {
    report.Set("setup_s", Median(setup_s));
    report.Set("latency_p50_ms", Median(totals.latency));
    report.Set("latency_p99_ms", Median(totals.slice_tails));
    report.Set("throughput_rps", totals.wall_s > 0 ? n / totals.wall_s : 0);
    report.Set("modeled_io_ms", totals.modeled_io_ms / n);
    report.Set("peak_rss_mb", PeakRssMb());
    report.Info("requests", n, "count");
    report.Info("offered_qps", kRateQps, "q/s");
    report.Info("cache_hit_rate", totals.cache_hits / n, "ratio");
    report.Info("gen.late_p99_ms", late_p99, "ms");
    return;
  }
  report.Set("mdx.parse_ms", Mean(totals.parse));
  report.Set("exec.result_cache.hit_rate", totals.cache_hits / n);
  PublishReadPages(totals.io, n, report);
  report.Set("server.submit_us", Median(totals.submit_us));
  report.Set("server.attach_frac", totals.attached / n);
  report.Set("server.classes_per_query",
             totals.admitted > 0
                 ? static_cast<double>(totals.classes_opened) /
                       static_cast<double>(totals.admitted)
                 : 0);
  report.Set("server.degraded_frac", totals.degraded / n);
  report.Set("server.queue_depth_max",
             static_cast<double>(totals.queue_depth_max));
  report.Set("gen.late_p99_ms", late_p99);
}

}  // namespace perfbench
