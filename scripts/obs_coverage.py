#!/usr/bin/env python3
"""Aggregates gcov line coverage for the observability and memory-accounting
code and gates it at a threshold.

Usage: scripts/obs_coverage.py [build_dir] [threshold_pct]

Walks `build_dir` (default build-cov) for .gcda files produced by a
-DSTARSHARE_COVERAGE=ON build after the test suite has run, asks gcov for
JSON line records (gcov -t --json-format, no files written), and merges
them per source file: a line is instrumented if any translation unit
instruments it and covered if any translation unit executed it — this is
what makes header-inline coverage (obs/metrics.h) add up across the many
TUs that include it. Gated files: everything under src/obs/,
src/server/ (the query-server subsystem) and src/opt/ (the five
optimizers and the AND-OR DAG), plus the memory-accounting subsystem
(exec/spill, exec/memory_budget, common/mem_stats), the incremental
class-cost tracker (cost/class_cost_tracker), the CUBE/ROLLUP
lattice path (cube/lattice, the derived-source operator), the
star-join filter operator (exec/operators/star_join_filter), and the
view build, refresh and splice path (cube/view_builder,
cube/materialized_view, index/bitmap_join_index), and the one pass
driver (exec/operators/pass_driver.h, exec/operators/class_pipeline,
parallel/morsel_pipeline.h). Other files are ignored. Prints a per-file table and
exits non-zero when total gated line coverage falls below the threshold
(default 90%).
"""

import json
import os
import subprocess
import sys

# Path fragments whose files are coverage-gated.
GATED = (
    os.path.join("src", "obs") + os.sep,
    os.path.join("src", "server") + os.sep,
    os.path.join("src", "exec", "spill."),
    os.path.join("src", "exec", "memory_budget."),
    os.path.join("src", "common", "mem_stats.h"),
    os.path.join("src", "storage", "packed_column."),
    os.path.join("src", "storage", "table_io."),
    os.path.join("src", "opt") + os.sep,
    os.path.join("src", "cost", "class_cost_tracker."),
    os.path.join("src", "cube", "lattice."),
    os.path.join("src", "exec", "operators", "derived_source."),
    os.path.join("src", "exec", "operators", "star_join_filter."),
    os.path.join("src", "cube", "view_builder."),
    os.path.join("src", "cube", "materialized_view."),
    os.path.join("src", "index", "bitmap_join_index."),
    os.path.join("src", "exec", "operators", "pass_driver.h"),
    os.path.join("src", "exec", "operators", "class_pipeline."),
    os.path.join("src", "parallel", "morsel_pipeline.h"),
)


def gated_name(path):
    """Returns the src/-relative name when `path` is gated, else None."""
    idx = path.find("src" + os.sep)
    if idx < 0:
        return None
    name = path[idx:]
    return name if any(frag in name for frag in GATED) else None


def collect_gcda(build_dir):
    out = []
    for root, _, files in os.walk(build_dir):
        out.extend(os.path.join(root, f) for f in files if f.endswith(".gcda"))
    return sorted(out)


def main():
    build_dir = sys.argv[1] if len(sys.argv) > 1 else "build-cov"
    threshold = float(sys.argv[2]) if len(sys.argv) > 2 else 90.0

    gcda_files = collect_gcda(build_dir)
    if not gcda_files:
        print(
            f"obs_coverage: no .gcda files under {build_dir} — configure "
            "with -DSTARSHARE_COVERAGE=ON, build, and run ctest first"
        )
        return 1

    # file -> set of instrumented / covered line numbers, merged across TUs.
    instrumented = {}
    covered = {}
    for gcda in gcda_files:
        proc = subprocess.run(
            ["gcov", "-t", "--json-format", gcda],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            continue
        for line in proc.stdout.splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            for record in doc.get("files", []):
                path = os.path.normpath(record.get("file", ""))
                name = gated_name(path)
                if name is None:
                    continue
                inst = instrumented.setdefault(name, set())
                cov = covered.setdefault(name, set())
                for rec in record.get("lines", []):
                    number = rec.get("line_number")
                    if number is None:
                        continue
                    inst.add(number)
                    if rec.get("count", 0) > 0:
                        cov.add(number)

    if not instrumented:
        print("obs_coverage: no gated line records found in gcov output")
        return 1

    total_inst = 0
    total_cov = 0
    print(f"{'file':<34} {'lines':>7} {'covered':>8} {'pct':>7}")
    for name in sorted(instrumented):
        inst = len(instrumented[name])
        cov = len(covered.get(name, set()))
        total_inst += inst
        total_cov += cov
        pct = 100.0 * cov / inst if inst else 100.0
        print(f"{name:<34} {inst:>7} {cov:>8} {pct:>6.1f}%")

    total_pct = 100.0 * total_cov / total_inst if total_inst else 100.0
    print(f"{'total gated':<34} {total_inst:>7} {total_cov:>8} "
          f"{total_pct:>6.1f}%")
    if total_pct < threshold:
        print(
            f"obs_coverage: FAIL — gated line coverage {total_pct:.1f}% "
            f"is below the {threshold:.0f}% gate"
        )
        return 1
    print(f"obs_coverage: OK (gate {threshold:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
