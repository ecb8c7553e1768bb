// Shared pieces of the StarShare benchmark runner: run options, the result
// report (one JSON object on the last stdout line), sample statistics,
// engine set-up on the paper test schema, and the span ledger that turns the
// trace of one request into per-layer times.
//
// Layer times are measured from outside the engine: the runner binds its own
// obs::Tracer on the calling thread and opens "bench.*" spans around each
// public call (ParseMdx/ParseCube, Optimize, LowerGlobalPlan, Execute,
// ExecuteCube, AppendFacts). The engine's own spans (optimizer phases,
// physical nodes, view refreshes) nest under them, so one span tree covers
// the whole request.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "obs/trace.h"
#include "query/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Engine set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
// Rows of the fact table every workload starts from.
constexpr uint64_t kFactRows = 2'000'000;

// The paper's fact table (§7.2) of kFactRows rows with every Table 1 view
// and bitmap indexes on A'B'C'D, generated from `data_seed`.
struct Dataset {
  uint64_t data_seed = 0;
  bool integer_measures = false;
};

// Derives the data seed and the traffic seed of a run from --seed, so one
// seed fixes every input and distinct seeds give distinct inputs.
uint64_t DataSeed(uint64_t seed);
uint64_t TrafficSeed(uint64_t seed);

// Constructs an engine and loads `data` (fact table, Table 1 views,
// indexes). Returns the engine; *elapsed_s receives the wall time taken.
std::unique_ptr<starshare::Engine> BuildEngine(
    const starshare::EngineConfig& config, const Dataset& data,
    double* elapsed_s);

// Parses each MDX text into one component query (ids 1..n).
starshare::Result<std::vector<starshare::DimensionalQuery>> ParseEach(
    const starshare::Engine& engine, const std::vector<std::string>& mdx);

// One synchronous read request: parses each MDX text, plans the queries
// together with Global Greedy and executes the plan, with a bench span
// around each call when traced. Only a traced request also lowers the plan
// (for plan.lower_ms): Execute builds its own physical plan, so lowering is
// not part of the request an untraced run times.
struct BatchRequest {
  double latency_ms = 0;
  bool parsed = true;
  std::vector<starshare::DimensionalQuery> queries;  // results point here
  std::vector<starshare::ExecutedQuery> results;
  size_t classes = 0;
  // Per planned class, in execution order: the cost model's CPU estimate
  // (shared plus every member's own).
  std::vector<double> class_cpu_est_ms;
  starshare::obs::Trace trace;
};
BatchRequest RunMdxBatch(starshare::Engine& engine,
                         const std::vector<std::string>& mdx, bool traced);

// Largest memory high-water mark of any node of an executed plan.
uint64_t PeakNodeBytes(const starshare::PhysicalPlan& plan);

// ---- Statistics -----------------------------------------------------------

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
// The highest percentile (at most the 99th) that has at least ten samples
// beyond it: the value with max(10, n/100) larger samples. 0 when empty.
double TailValue(std::vector<double> values);
// Process peak resident set size in MB.
double PeakRssMb();

// Same groups and byte-identical aggregate values, after sorting both
// (the test suite's comparison, on canonicalized copies).
bool BitIdentical(starshare::QueryResult a, starshare::QueryResult b);

// ---- Report ---------------------------------------------------------------

// Every metric a run prints, with its unit. An untraced run prints the
// end-to-end list and a traced run the per-layer list, always all of each,
// in this order; a layer a workload does not exercise reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEndMetrics;
extern const std::vector<MetricDef> kLayerMetrics;

class Report {
 public:
  // Sets a metric of kEndToEndMetrics or kLayerMetrics.
  void Set(const std::string& name, double value);
  // A figure printed for people only ("info"), e.g. sample counts.
  void Info(const std::string& name, double value, const std::string& unit);
  // Records the exact counts of request `key`; they must repeat whenever
  // the same request runs on the same data, in this run (a mismatch is a
  // problem) and in later runs of the seed (run.py compares those).
  void Fingerprint(const std::string& key, const std::string& value);
  // A wrong or failed output, or a measurement that cannot be trusted
  // (the open-loop generator fell behind); makes the run incorrect.
  void Problem(const std::string& what);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return problems_.empty(); }
  std::string ToJson(const Options& options) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::map<std::string, double> values_;
  std::vector<Entry> info_;
  std::map<std::string, std::string> fingerprints_;
  std::vector<std::string> problems_;
};

// Fingerprint text of a request: executed plan shape and exact page counts.
std::string IoFingerprint(const std::string& shape_hash,
                          const starshare::IoStats& io);

// ---- Tracing --------------------------------------------------------------

// Binds a fresh tracer to the calling thread for one request and opens the
// request's root span; the engine's spans nest below it. With enabled=false
// nothing is bound and every bench span is a no-op.
class RequestTrace {
 public:
  RequestTrace(starshare::Engine& engine, bool enabled, const char* root);
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  // Closes the root span and returns the recorded tree (empty if disabled).
  starshare::obs::Trace Finish();

 private:
  std::optional<starshare::obs::Tracer> tracer_;
  std::optional<starshare::obs::Tracer::Scope> scope_;
  std::optional<starshare::obs::ScopedSpan> root_;
};

// Sums span times over traced requests. Self time of a span is its wall
// time minus its children's; the root's self time is the part of the
// request no layer span accounts for.
class Ledger {
 public:
  // Adds one request's trace. `class_cpu_est_ms` gives the CPU estimate of
  // each executed class in order; rollup classes carry theirs on the span.
  void Add(const starshare::obs::Trace& trace,
           const std::vector<double>* class_cpu_est_ms = nullptr);

  size_t requests() const { return requests_; }
  // Mean per request of the summed inclusive / self time of spans `name`.
  double WallPerRequest(const std::string& name) const;
  double SelfPerRequest(const std::string& name) const;
  // Mean per request of the root span's self time.
  double UnattributedPerRequest() const;
  // Mean per request of a named counter summed over spans `name`.
  double CounterPerRequest(const std::string& name,
                           const std::string& counter) const;
  // Median CPU q-error, max(est/act, act/est), over the executed classes
  // whose chain reads from a source span named `source_span`: the class's
  // CPU estimate against the wall time of its class span (everything runs
  // in memory, so that time is CPU time). 0 when no class was seen.
  double CpuQErrorP50(const std::string& source_span) const;

 private:
  size_t requests_ = 0;
  double unattributed_ms_ = 0;
  std::map<std::string, double> wall_ms_;
  std::map<std::string, double> self_ms_;
  std::map<std::pair<std::string, std::string>, double> counters_;
  std::map<std::string, std::vector<double>> qerror_;
};

// Publishes the per-layer metrics that every workload reports from its
// traced read requests (exec.* node self times, CPU q-errors, ledger
// check). Metrics a workload has no data for read 0.
void PublishExecLayers(const Ledger& reads, Report& report);

// Publishes exec.tuples_per_row and exec.hash_probes from the I/O counters
// of `requests` read requests that returned `result_rows` rows in total.
void PublishReadWork(const starshare::IoStats& io, double requests,
                     uint64_t result_rows, Report& report);

// Publishes storage.{seq,rand,index}_pages per read request.
void PublishReadPages(const starshare::IoStats& io, double requests,
                      Report& report);

// Workload entry points (one file each).
void RunPaperBatch(const Options& options, Report& report);
void RunCubeMaintain(const Options& options, Report& report);
void RunServerOpen(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
