#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/macros.h"
#include "core/paper_workload.h"
#include "plan/lowering.h"
#include "test_util.h"

namespace perfbench {

using namespace starshare;

uint64_t DataSeed(uint64_t seed) { return 19980601 + seed * 7919; }
uint64_t TrafficSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 1; }

std::unique_ptr<Engine> BuildEngine(const EngineConfig& config,
                                    const Dataset& data, double* elapsed_s) {
  const Clock::time_point start = Clock::now();
  auto engine =
      std::make_unique<Engine>(StarSchema::PaperTestSchema(), config);
  engine->LoadFactTable({.num_rows = kFactRows,
                         .seed = data.data_seed,
                         .integer_measures = data.integer_measures});
  Result<std::vector<MaterializedView*>> views =
      engine->MaterializeViews(PaperWorkload::ViewSpecs());
  SS_CHECK_MSG(views.ok(), "%s", views.status().ToString().c_str());
  const Status indexed = engine->BuildIndexes(PaperWorkload::IndexedViewSpec(),
                                              PaperWorkload::IndexedDims());
  SS_CHECK_MSG(indexed.ok(), "%s", indexed.ToString().c_str());
  engine->ConsumeIoStats();  // set-up I/O is not request work
  *elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  return engine;
}

Result<std::vector<DimensionalQuery>> ParseEach(
    const Engine& engine, const std::vector<std::string>& mdx) {
  std::vector<DimensionalQuery> queries;
  for (size_t i = 0; i < mdx.size(); ++i) {
    Result<std::vector<DimensionalQuery>> parsed =
        engine.ParseMdx(mdx[i], static_cast<int>(i) + 1);
    if (!parsed.ok()) return parsed.status();
    if (parsed.value().size() != 1) {
      return Status::InvalidArgument("expected one component query: " +
                                     mdx[i]);
    }
    queries.push_back(std::move(parsed.value()[0]));
  }
  return queries;
}

BatchRequest RunMdxBatch(Engine& engine, const std::vector<std::string>& mdx,
                         bool traced) {
  BatchRequest r;
  const Clock::time_point start = Clock::now();
  RequestTrace trace(engine, traced, "bench.request");
  {
    obs::ScopedSpan span("bench.parse");
    Result<std::vector<DimensionalQuery>> parsed = ParseEach(engine, mdx);
    r.parsed = parsed.ok();
    if (r.parsed) r.queries = std::move(parsed.value());
  }
  if (r.parsed) {
    GlobalPlan plan;
    {
      obs::ScopedSpan span("bench.optimize");
      plan = engine.Optimize(r.queries, OptimizerKind::kGlobalGreedy);
    }
    if (traced) {
      obs::ScopedSpan span("bench.lower");
      PhysicalPlan lowered;
      LowerGlobalPlan(lowered, plan, engine.schema());
    }
    {
      obs::ScopedSpan span("bench.execute");
      r.results = engine.Execute(plan);
    }
    r.classes = plan.classes.size();
    for (const ClassPlan& cls : plan.classes) {
      double cpu = cls.est_shared_cpu_ms;
      for (const LocalPlan& m : cls.members) cpu += m.est_nonshared_cpu_ms;
      r.class_cpu_est_ms.push_back(cpu);
    }
  }
  r.trace = trace.Finish();
  r.latency_ms = MsBetween(start, Clock::now());
  return r;
}

uint64_t PeakNodeBytes(const PhysicalPlan& plan) {
  uint64_t peak = 0;
  for (const PhysicalNode& node : plan.nodes()) {
    peak = std::max(peak, node.mem.peak_bytes);
  }
  return peak;
}

// ---- Statistics -----------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double TailValue(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t beyond = std::max<size_t>(10, n / 100);
  return beyond >= n ? values.back() : values[n - 1 - beyond];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

bool BitIdentical(QueryResult a, QueryResult b) {
  a.Canonicalize();
  b.Canonicalize();
  return testing::BitIdentical(a, b);
}

// ---- Report ---------------------------------------------------------------

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"throughput_rps", "req/s"},
    {"modeled_io_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kLayerMetrics = {
    {"mdx.parse_ms", "ms"},
    {"opt.optimize_ms", "ms"},
    {"opt.classes_per_request", "count"},
    {"cost.cpu_qerror_p50.shared_scan", "ratio"},
    {"cost.cpu_qerror_p50.shared_probe", "ratio"},
    {"cost.cpu_qerror_p50.derived_scan", "ratio"},
    {"plan.lower_ms", "ms"},
    {"exec.execute_ms", "ms"},
    {"exec.shared_scan.self_ms", "ms"},
    {"exec.star_join_filter.self_ms", "ms"},
    {"exec.route.self_ms", "ms"},
    {"exec.aggregate.self_ms", "ms"},
    {"exec.shared_probe.self_ms", "ms"},
    {"exec.bitmap_filter.self_ms", "ms"},
    {"exec.derived_scan.self_ms", "ms"},
    {"exec.tuples_per_row", "ratio"},
    {"exec.hash_probes", "count"},
    {"exec.peak_mem_bytes", "bytes"},
    {"exec.result_cache.hit_rate", "ratio"},
    {"cube.execute_ms", "ms"},
    {"cube.base_levels", "count"},
    {"cube.rollup_levels", "count"},
    {"cube.refresh_ms", "ms"},
    {"cube.append_other_ms", "ms"},
    {"write_p50_ms", "ms"},
    {"storage.seq_pages", "pages"},
    {"storage.rand_pages", "pages"},
    {"storage.index_pages", "pages"},
    {"storage.write_amp", "ratio"},
    {"parallel.tasks_per_request", "count"},
    {"server.submit_us", "us"},
    {"server.attach_frac", "ratio"},
    {"server.classes_per_query", "ratio"},
    {"server.degraded_frac", "ratio"},
    {"server.queue_depth_max", "count"},
    {"max_rate_qps", "q/s"},
    {"gen.late_p99_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

void Report::Set(const std::string& name, double value) {
  const auto known = [&](const std::vector<MetricDef>& list) {
    return std::any_of(list.begin(), list.end(),
                       [&](const MetricDef& m) { return name == m.name; });
  };
  SS_CHECK_MSG(known(kEndToEndMetrics) || known(kLayerMetrics),
               "unknown metric %s", name.c_str());
  values_[name] = value;
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::Fingerprint(const std::string& key, const std::string& value) {
  const auto [it, inserted] = fingerprints_.emplace(key, value);
  if (!inserted && it->second != value) {
    Problem(key + ": page counts changed between repetitions: " + it->second +
            " vs " + value);
  }
}

void Report::Problem(const std::string& what) {
  if (problems_.size() < 20) problems_.push_back(what);
  if (problems_.size() == 20) problems_.push_back("... more problems");
}

std::string Report::ToJson(const Options& options) const {
  std::vector<Entry> metrics;
  for (const MetricDef& def : options.trace ? kLayerMetrics : kEndToEndMetrics) {
    const auto it = values_.find(def.name);
    metrics.push_back({def.name, it == values_.end() ? 0.0 : it->second,
                       def.unit});
  }
  const auto entries = [](const std::vector<Entry>& list) {
    std::string out = "{";
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(list[i].name) + ": {\"value\": " +
             JsonNumber(list[i].value) +
             ", \"unit\": " + JsonString(list[i].unit) + "}";
    }
    return out + "}";
  };
  std::string out = "{\"workload\": " + JsonString(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"trace\": " + (options.trace ? "1" : "0") +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": " + entries(metrics) +
                    ", \"info\": " + entries(info_) + ", \"fingerprints\": {";
  for (const auto& [key, value] : fingerprints_) {
    if (out.back() != '{') out += ", ";
    out += JsonString(key) + ": " + JsonString(value);
  }
  out += "}, \"problems\": [";
  for (size_t i = 0; i < problems_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(problems_[i]);
  }
  return out + "]}";
}

std::string IoFingerprint(const std::string& shape_hash, const IoStats& io) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s seq=%llu rand=%llu index=%llu "
                "written=%llu",
                shape_hash.c_str(),
                static_cast<unsigned long long>(io.seq_pages_read),
                static_cast<unsigned long long>(io.rand_pages_read),
                static_cast<unsigned long long>(io.index_pages_read),
                static_cast<unsigned long long>(io.pages_written));
  return buf;
}

// ---- Tracing --------------------------------------------------------------

RequestTrace::RequestTrace(Engine& engine, bool enabled, const char* root) {
  if (!enabled) return;
  tracer_.emplace(&engine.disk());
  scope_.emplace(&*tracer_);
  root_.emplace(root);
}

obs::Trace RequestTrace::Finish() {
  if (!tracer_) return obs::Trace();
  root_.reset();
  scope_.reset();
  obs::Trace trace = tracer_->Take();
  tracer_.reset();
  return trace;
}

void Ledger::Add(const obs::Trace& trace,
                 const std::vector<double>* class_cpu_est_ms) {
  if (trace.empty()) return;
  ++requests_;
  const std::vector<obs::TraceSpan>& spans = trace.spans;
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].wall_ms;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -= spans[i].wall_ms;
    }
  }
  unattributed_ms_ += self[0];
  size_t class_index = 0;
  for (size_t i = 1; i < spans.size(); ++i) {
    wall_ms_[spans[i].name] += spans[i].wall_ms;
    self_ms_[spans[i].name] += self[i];
    for (const auto& [key, value] : spans[i].counters) {
      counters_[{spans[i].name, key}] += static_cast<double>(value);
    }
    // CPU q-error of each executed class (oversized classes nest their
    // chunks' class spans; only the outer one counts). Spans are in
    // preorder, so the class's source is the first source span of its
    // subtree.
    if (spans[i].name != "exec.class" ||
        spans[static_cast<size_t>(spans[i].parent)].name == "exec.class") {
      continue;
    }
    const size_t k = class_index++;
    std::string source;
    for (size_t j = i + 1;
         j < spans.size() && spans[j].depth > spans[i].depth && source.empty();
         ++j) {
      if (spans[j].name == "exec.shared_scan" ||
          spans[j].name == "exec.shared_probe" ||
          spans[j].name == "exec.derived_scan") {
        source = spans[j].name;
      }
    }
    double est = -1.0;
    if (source == "exec.derived_scan") {
      est = spans[i].est_ms;
    } else if (class_cpu_est_ms != nullptr && k < class_cpu_est_ms->size()) {
      est = (*class_cpu_est_ms)[k];
    }
    const double actual = spans[i].wall_ms;
    if (source.empty() || est <= 0.0 || actual <= 0.0) continue;
    qerror_[source].push_back(std::max(est / actual, actual / est));
  }
}

double Ledger::WallPerRequest(const std::string& name) const {
  const auto it = wall_ms_.find(name);
  return it == wall_ms_.end() || requests_ == 0
             ? 0.0
             : it->second / static_cast<double>(requests_);
}

double Ledger::SelfPerRequest(const std::string& name) const {
  const auto it = self_ms_.find(name);
  return it == self_ms_.end() || requests_ == 0
             ? 0.0
             : it->second / static_cast<double>(requests_);
}

double Ledger::UnattributedPerRequest() const {
  return requests_ == 0 ? 0.0
                        : unattributed_ms_ / static_cast<double>(requests_);
}

double Ledger::CounterPerRequest(const std::string& name,
                                 const std::string& counter) const {
  const auto it = counters_.find({name, counter});
  return it == counters_.end() || requests_ == 0
             ? 0.0
             : it->second / static_cast<double>(requests_);
}

double Ledger::CpuQErrorP50(const std::string& source_span) const {
  const auto it = qerror_.find(source_span);
  return it == qerror_.end() ? 0.0 : Median(it->second);
}

void PublishExecLayers(const Ledger& reads, Report& report) {
  for (const char* node : {"shared_scan", "star_join_filter", "route",
                           "aggregate", "shared_probe", "bitmap_filter",
                           "derived_scan"}) {
    report.Set(std::string("exec.") + node + ".self_ms",
               reads.SelfPerRequest(std::string("exec.") + node));
  }
  for (const char* source : {"shared_scan", "shared_probe", "derived_scan"}) {
    report.Set(std::string("cost.cpu_qerror_p50.") + source,
               reads.CpuQErrorP50(std::string("exec.") + source));
  }
  report.Set("unattributed_ms", reads.UnattributedPerRequest());
}

void PublishReadWork(const IoStats& io, double requests, uint64_t result_rows,
                     Report& report) {
  report.Set("exec.tuples_per_row",
             result_rows > 0 ? static_cast<double>(io.tuples_processed) /
                                   static_cast<double>(result_rows)
                             : 0);
  report.Set("exec.hash_probes",
             requests > 0 ? static_cast<double>(io.hash_probes) / requests : 0);
}

void PublishReadPages(const IoStats& io, double requests, Report& report) {
  const auto per_request = [&](uint64_t pages) {
    return requests > 0 ? static_cast<double>(pages) / requests : 0;
  };
  report.Set("storage.seq_pages", per_request(io.seq_pages_read));
  report.Set("storage.rand_pages", per_request(io.rand_pages_read));
  report.Set("storage.index_pages", per_request(io.index_pages_read));
}

}  // namespace perfbench
