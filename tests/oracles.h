// Independent references for the test suite, beside testing::BruteForce in
// tests/test_util.h: the paper's single-query star joins (§3, Figs. 1 and
// 3) as plain per-row loops over the storage layer, and a view build that
// folds into a std::map. Each charges the I/O its engine counterpart must
// charge, so suites can compare IoStats as well as bits.

#ifndef STARSHARE_TESTS_ORACLES_H_
#define STARSHARE_TESTS_ORACLES_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cube/materialized_view.h"
#include "cube/view_builder.h"
#include "exec/bound_query.h"
#include "exec/key_packer.h"
#include "exec/operators/bitmap_filter.h"
#include "query/query.h"
#include "query/result.h"
#include "storage/disk_model.h"
#include "storage/table.h"

namespace starshare {
namespace testing {

// Pipelined right-deep hash-based star join + aggregation (Fig. 1): a pass
// table per restricted dimension, one stream over the view, passing rows
// aggregated in row order. Charges the view's pages and tuples plus one
// hash probe per row per restricted dimension.
inline QueryResult HashStarJoin(const StarSchema& schema,
                                const DimensionalQuery& query,
                                const MaterializedView& view,
                                DiskModel& disk) {
  BoundQuery bound(schema, query, view);
  std::vector<const DimPredicate*> preds;
  for (const DimPredicate& pred : query.predicate().conjuncts()) {
    preds.push_back(&pred);
  }
  const ResidualFilter filter(schema, view, preds);
  const double* measures = bound.measure_data();
  view.table().ScanPages(disk, [&](uint64_t begin, uint64_t end) {
    disk.CountTuples(end - begin);
    for (uint64_t row = begin; row < end; ++row) {
      disk.CountHashProbes(filter.num_predicates());
      if (filter.Matches(row)) {
        bound.AccumulateRaw(bound.translator().PackRow(row), measures[row]);
      }
    }
  });
  return bound.Finish();
}

// Bitmap join-index star join (Fig. 3): the candidate bitmap of the
// indexed restricted dimensions, a probe of its positions, the residual
// (unindexed) predicates per retrieved row, aggregation in row order.
// Requires a view index on at least one restricted dimension.
inline QueryResult IndexStarJoin(const StarSchema& schema,
                                 const DimensionalQuery& query,
                                 const MaterializedView& view,
                                 DiskModel& disk) {
  BoundQuery bound(schema, query, view);
  std::vector<const DimPredicate*> residual_preds;
  const Bitmap result =
      BuildResultBitmap(schema, query, view, disk, &residual_preds);
  const ResidualFilter residual(schema, view, residual_preds);
  const std::vector<uint64_t> positions = result.ToPositions();
  const double* measures = bound.measure_data();
  view.table().ProbePositions(disk, positions, [&](uint64_t row) {
    if (residual.Matches(row)) {
      bound.AccumulateRaw(bound.translator().PackRow(row), measures[row]);
    }
  });
  disk.CountTuples(positions.size());
  return bound.Finish();
}

// Reference view tables and the I/O charged for them.
struct ReferenceViews {
  std::vector<std::unique_ptr<Table>> tables;  // in target order
  IoStats io;
};

// The reference build: scans each of `sources` in order, page by page,
// folds every row into a std::map per target keyed by the packed key (each
// cell from 0.0, rows in scan order), emits each target's cells in Emit
// order, packs when `compressed`, and charges the writes. One source is a
// build; the old view then the delta is a refresh. Tables are named by
// their spec strings and carry every measure of the first source.
inline ReferenceViews ReferenceBuild(
    const StarSchema& schema,
    const std::vector<const MaterializedView*>& sources,
    const std::vector<GroupBySpec>& targets, bool clustered,
    bool compressed) {
  const size_t num_measures = sources.front()->table().num_measures();
  std::vector<KeyPacker> packers;
  std::vector<std::vector<size_t>> retained;
  for (const GroupBySpec& spec : targets) {
    packers.emplace_back(schema, spec);
    retained.push_back(spec.RetainedDims(schema));
  }
  std::vector<std::map<uint64_t, std::vector<double>>> cells(targets.size());
  DiskModel disk;
  for (const MaterializedView* source : sources) {
    const Table& table = source->table();
    table.ScanPages(disk, [&](uint64_t begin, uint64_t end) {
      disk.CountTuples(end - begin);
      for (uint64_t r = begin; r < end; ++r) {
        for (size_t t = 0; t < targets.size(); ++t) {
          std::vector<int32_t> members(retained[t].size());
          for (size_t i = 0; i < members.size(); ++i) {
            const size_t d = retained[t][i];
            members[i] = schema.dim(d).MapUp(
                source->StoredLevel(d), targets[t].level(d),
                table.key(source->KeyColForDim(d), r));
          }
          std::vector<double>& sums =
              cells[t]
                  .try_emplace(packers[t].Pack(members.data()), num_measures,
                               0.0)
                  .first->second;
          for (size_t m = 0; m < num_measures; ++m) {
            sums[m] += table.measure(r, m);
          }
        }
      }
    });
  }

  std::vector<std::string> measure_names;
  for (size_t m = 0; m < num_measures; ++m) {
    measure_names.push_back(sources.front()->table().measure_name(m));
  }
  ReferenceViews out;
  for (size_t t = 0; t < targets.size(); ++t) {
    const GroupBySpec& spec = targets[t];
    std::vector<uint64_t> order;
    for (const auto& [key, _] : cells[t]) order.push_back(key);
    std::sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
      const uint64_t sa = EmitSortKey(a, clustered);
      const uint64_t sb = EmitSortKey(b, clustered);
      return sa != sb ? sa < sb : a < b;
    });
    std::vector<std::string> key_names;
    for (size_t d : retained[t]) {
      key_names.push_back(schema.dim(d).LevelName(spec.level(d)));
    }
    auto table = std::make_unique<Table>(spec.ToString(schema), key_names,
                                         measure_names);
    for (const uint64_t key : order) {
      table->AppendRowM(packers[t].Unpack(key).data(),
                        cells[t].at(key).data());
    }
    table->SetCompressed(compressed);
    disk.WritePages(table->num_pages());
    out.tables.push_back(std::move(table));
  }
  out.io = disk.stats();
  return out;
}

}  // namespace testing
}  // namespace starshare

#endif  // STARSHARE_TESTS_ORACLES_H_
