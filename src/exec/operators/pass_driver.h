// The one pass driver. Every shared pass — a class's scan, probe or rollup
// (exec/operators/class_pipeline.h), a query-server segment
// (server/scan_runner.h) and a view build (cube/view_builder.h) — is one
// operator chain over a range of input units (rows, or a probe's
// positions), and DrivePass is the only code that decides how that chain
// is pulled:
//
//   serial (policy not engaged): one chain over [0, num_units) on the
//     caller's DiskModel, its output consumed after every batch;
//   morsel-parallel (engaged): one chain per morsel on a worker DiskModel,
//     each morsel's output consumed on the calling thread in morsel order
//     (parallel/morsel_pipeline.h), the workers' DiskModels merged into the
//     caller's afterwards.
//
// Either way `consume` sees the output in input order, so every fold it
// makes replays the serial sequence and the results are bit-identical.
// Morsels are whole pages, whatever size the policy sets, so each page is
// charged by exactly one chain and the merged IoStats equal the serial
// pass's (DESIGN.md §8).

#ifndef STARSHARE_EXEC_OPERATORS_PASS_DRIVER_H_
#define STARSHARE_EXEC_OPERATORS_PASS_DRIVER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/operators/operator.h"
#include "parallel/morsel.h"
#include "parallel/morsel_pipeline.h"
#include "parallel/parallel_context.h"
#include "parallel/policy.h"
#include "storage/disk_model.h"

namespace starshare {

// Runs one pass over units [0, num_units) of a table with `rows_per_page`
// rows per page. The output is `num_slots` match slots (one per class
// member, or per view-build target).
//
//   run(disk, begin, end, out, on_batch) builds the pass's chain over units
//     [begin, end) on `disk`, pulls it dry, appends each batch's output to
//     `out` and calls on_batch(batch_begin) after each batch.
//   consume(out, begin) receives that output on the calling thread, in
//     input order: after every batch (serial), or after every morsel
//     (parallel); `begin` is the first unit of the batch or morsel.
//
// The serial pass streams on `disk` itself and its slots hold one batch at
// a time; a morsel's chain appends straight into that morsel's slots.
template <typename RunFn, typename ConsumeFn>
void DrivePass(const ParallelPolicy& policy, DiskModel& disk,
               uint64_t num_units, uint64_t rows_per_page, size_t num_slots,
               RunFn&& run, ConsumeFn&& consume) {
  using Slots = std::vector<QueryMatchBatch>;
  if (!policy.engaged()) {
    Slots out(num_slots);
    run(disk, uint64_t{0}, num_units, out, [&](uint64_t batch_begin) {
      consume(static_cast<const Slots&>(out), batch_begin);
      for (QueryMatchBatch& slot : out) slot.Clear();
    });
    return;
  }
  const size_t workers =
      std::min(policy.parallelism, policy.pool->num_threads());
  ParallelContext ctx(disk, workers);
  MorselDispatcher dispatcher(
      num_units, MorselDispatcher::MorselRows(policy.morsel_rows, rows_per_page),
      /*window=*/4 * workers);
  RunMorselPipeline<Slots>(
      policy.pool, workers, dispatcher, ctx,
      [&](const Morsel& morsel, DiskModel& worker_disk, Slots& out) {
        out.resize(num_slots);
        run(worker_disk, morsel.begin, morsel.end, out, [](uint64_t) {});
      },
      [&](const Morsel& morsel, const Slots& out) {
        consume(out, morsel.begin);
      });
  ctx.MergeIntoParent();
}

}  // namespace starshare

#endif  // STARSHARE_EXEC_OPERATORS_PASS_DRIVER_H_
