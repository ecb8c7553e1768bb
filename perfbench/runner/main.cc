// perfbench_runner: runs one workload of the StarShare benchmark and prints
// its result as one JSON object on the last line of standard output.
//
//   perfbench_runner --workload paper_batch|cube_maintain|server_open
//                    --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The exit code is 0 when every output check passed, 1 when one failed and
// 2 on a usage error. perfbench/run.py builds and calls this program.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "paper_batch|cube_maintain|server_open --seed N --seconds S "
               "--trace 0|1\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || number < 0) {
      return Usage(("bad value for " + flag).c_str());
    }
    if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  perfbench::Report report;
  if (options.workload == "paper_batch") {
    perfbench::RunPaperBatch(options, report);
  } else if (options.workload == "cube_maintain") {
    perfbench::RunCubeMaintain(options, report);
  } else if (options.workload == "server_open") {
    perfbench::RunServerOpen(options, report);
  } else {
    return Usage("unknown workload");
  }
  std::printf("%s\n", report.ToJson(options).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
