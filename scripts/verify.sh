#!/usr/bin/env bash
# Tier-1 verification: the plain build + full test suite (including
# packed_column_test's SelectInRange cases, which run the scalar kernel and,
# on CPUs with AVX-512 VBMI, the vector kernel against a row-by-row Get at
# every key width), the same suite
# under AddressSanitizer + UBSan (-DSTARSHARE_SANITIZE=ON), a dedicated
# ASan pass of the spill suites (tiny budgets and failed writes exercise
# every stage/spill/replay/cleanup path under the leak checker), the
# threading suites under ThreadSanitizer (-DSTARSHARE_SANITIZE=thread), a
# TSan pass of the query-server suites (cross-session admission races,
# shutdown with
# queries in flight), ASan+TSan passes of the CUBE/ROLLUP lattice suite
# (derived-table lifetimes, rollup passes on the morsel driver), a
# second full-suite pass with
# STARSHARE_UNCOMPRESSED=1 (the raw page layout), a perf-smoke
# pass of the scan, maintenance and spill benches on a reduced row count
# plus a short operator micro-bench run (their internal checks fail the
# stage if aggregate output differs from the brute-force oracle, the
# serial run or the unbudgeted run, any charged page count changes, the
# disabled-trace overhead bound of bench_vectorized_scan is exceeded, or
# refreshed views answer paper Tests 4-7, count members or look up index
# rows unlike rebuilt ones), a
# clang-tidy pass over src/plan/ + src/exec/ (skipped when clang-tidy is
# absent), a Release-build optimizer-differential pass (all five
# optimizers, 200 seeded random workloads, bit-identical results and
# exact modeled-I/O agreement), and a coverage pass gating src/obs/,
# src/server/, src/opt/, the memory-accounting subsystem, the
# incremental class-cost tracker, the compressed-storage files
# (packed_column, table_io), the CUBE/ROLLUP lattice path
# (cube/lattice, the derived-source operator), the star-join filter
# kernel, the view build/refresh/splice path (cube/view_builder,
# cube/materialized_view, index/bitmap_join_index) and the pass driver
# (exec/operators/pass_driver.h, exec/operators/class_pipeline,
# parallel/morsel_pipeline.h) at >= 90% covered lines.
# All stages must pass. Run from the repository root:
#
#   scripts/verify.sh [jobs]

set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> plain build + tests (compressed pages: default on)"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> compressed-layout matrix: full suite with the knob off"
# STARSHARE_UNCOMPRESSED=1 flips EngineConfig::compressed_pages' default
# to false (explicit assignments in tests still win), so the whole tier-1
# suite also runs on the raw 4k+8m byte layout — both physical layouts
# stay fully supported, not just the default.
STARSHARE_UNCOMPRESSED=1 \
  ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> ASan+UBSan build + tests"
cmake -B build-sanitize -S . -DSTARSHARE_SANITIZE=ON >/dev/null
cmake --build build-sanitize -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir build-sanitize --output-on-failure -j "$JOBS"

echo "==> spill suites under ASan (tiny budgets, scratch hygiene, chaos)"
# spill_aggregate_test runs budgets down to 1 byte (every batch spills),
# injects spill.write/spill.read/budget.grant faults, and scans the
# scratch dir after every run; spill_packed_test drives SpillFile and
# SpillStage directly (word-window merges, runs plus an in-memory tail,
# a failed write that leaves its records staged). Under ASan's leak
# checker this proves the spill files and buffers are released on
# success and failure alike.
ASAN_OPTIONS=detect_leaks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir build-sanitize --output-on-failure \
  -R 'spill_aggregate_test|spill_packed_test'

echo "==> TSan build + threading suites"
cmake -B build-tsan -S . -DSTARSHARE_SANITIZE=thread >/dev/null
# vectorized_determinism_test's 4-thread cases run the star-join kernel on
# morsel workers that share one set of dimension filters. packed_column_test
# checks the vector select kernel as this build compiles it: the
# instrumentation calls make GCC spill its masks, which once miscompiled.
# physical_plan_determinism_test runs the pass driver's {1,4} threads x
# {1,1024} batch-rows matrix over the scan, probe, hybrid and unshared
# passes and view builds; server segments and rollups are the driver's
# other callers, covered by the server and cube stages below.
cmake --build build-tsan -j "$JOBS" --target \
  thread_pool_test parallel_determinism_test parallel_chaos_test \
  metrics_test trace_test spill_aggregate_test vectorized_determinism_test \
  packed_column_test physical_plan_determinism_test
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'thread_pool_test|parallel_determinism_test|parallel_chaos_test|metrics_test|trace_test|spill_aggregate_test|vectorized_determinism_test|packed_column_test|physical_plan_determinism_test'

echo "==> cube lattice: ASan + TSan on the CUBE/ROLLUP suite"
# The cube path stacks every subsystem: shared base batch, derived
# re-aggregation (spill-capable), DAG-edged physical plans, MDX WITH
# CUBE/ROLLUP. ASan covers the derived-table lifetime (ephemeral views
# over re-materialized results); TSan covers the 4-thread morsel driver
# re-used for rollup passes.
ASAN_OPTIONS=detect_leaks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir build-sanitize --output-on-failure \
  -R 'cube_lattice_test'
cmake --build build-tsan -j "$JOBS" --target cube_lattice_test
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ctest --test-dir build-tsan --output-on-failure \
  -R 'cube_lattice_test'

echo "==> TSan: query-server suites (sessions, admission, chaos)"
# The continuous shared-scan server is the most concurrency-heavy
# subsystem: client threads race Submit against the controller, engine
# destruction races queries in flight, and the typed ThreadPool shutdown
# ordering is exactly the class of bug TSan exists for.
cmake --build build-tsan -j "$JOBS" --target \
  server_session_test server_admission_test server_chaos_test
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'server_session_test|server_admission_test|server_chaos_test'

echo "==> perf-smoke: scan benches on reduced rows"
# Each bench SS_CHECKs bit-identity against its reference execution and
# exact IoStats equality across configurations — a result drifting from
# the brute-force oracle (bench_vectorized_scan's baseline) or a page count
# drifting between configurations aborts the bench and this stage. Timings
# at this row count are recorded but not asserted; the Release 2M-row
# sweep is the perf gate.
(cd build && STARSHARE_ROWS=120000 ./bench/bench_vectorized_scan >/dev/null)
(cd build && STARSHARE_ROWS=120000 ./bench/bench_parallel_scan >/dev/null)
(cd build && STARSHARE_ROWS=120000 ./bench/bench_server_throughput >/dev/null)
# The append path: Tests 4-7, statistics and index lookups over refreshed
# views must match rebuilt ones.
(cd build && STARSHARE_ROWS=120000 ./bench/bench_ablation_maintenance >/dev/null)
# The spill path: every budgeted result must be bit-identical to the
# unbounded run, and modeled I/O unchanged, at budgets down to 1/16 of the
# working set.
(cd build && STARSHARE_ROWS=120000 ./bench/bench_spill_aggregate >/dev/null)
# The operator micro-benches (BM_SelectInRange times both select kernels)
# only have to run; google-benchmark 1.7 takes the minimum time as a plain
# number of seconds.
(cd build && ./bench/bench_micro_operators --benchmark_min_time=0.01 >/dev/null)

echo "==> optimizer differential: Release build, 200 seeds, all optimizers"
# The differential suite pins all five optimizers to bit-identical
# results, exact est==actual modeled IoStats on scan-only plans, and the
# cost ordering (DAG <= GG, OPTIMAL <= everything) across the paper
# workloads plus 200 seeded random workloads, at {1,4} threads x
# {1,1024} batch rows. A dedicated Release build keeps the 200-seed
# sweep fast and matches the configuration the benches run under.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" --target \
  optimizer_differential_test optimizer_test
ctest --test-dir build-release --output-on-failure -j "$JOBS" \
  -R 'optimizer_differential_test|optimizer_test'

echo "==> clang-tidy: src/plan/ + src/exec/ (bugprone, modernize, performance)"
# Gates the physical-plan DAG and operator layers with the repo .clang-tidy
# (warnings are errors there). Uses the plain build's compile commands;
# skips with a notice when clang-tidy is not installed so the stage never
# blocks environments without LLVM tooling.
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src/plan src/exec -name '*.cc' -print0 \
    | xargs -0 -P "$JOBS" -n 1 clang-tidy -p build --quiet
else
  echo "    clang-tidy not found; skipping (install LLVM tooling to enable)"
fi

echo "==> coverage: obs/server/opt/spill/storage/star-join/view line gate (>= 90%)"
cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
  -DSTARSHARE_COVERAGE=ON >/dev/null
cmake --build build-cov -j "$JOBS"
ctest --test-dir build-cov -j "$JOBS" >/dev/null
python3 scripts/obs_coverage.py build-cov 90

echo "==> verify OK"
