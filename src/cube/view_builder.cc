#include "cube/view_builder.h"

#include <algorithm>
#include <vector>

#include "exec/dim_translator.h"
#include "exec/flat_hash.h"
#include "exec/key_packer.h"
#include "exec/operators/pass_driver.h"
#include "exec/operators/scan_source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/lowering.h"

namespace starshare {
namespace {

// splitmix64 finalizer: the deterministic "heap order" permutation key.
uint64_t HashKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// True when packed key `a` precedes `b` in Emit order.
bool EmitsBefore(uint64_t a, uint64_t b, bool clustered) {
  const uint64_t sort_a = EmitSortKey(a, clustered);
  const uint64_t sort_b = EmitSortKey(b, clustered);
  return sort_a != sort_b ? sort_a < sort_b : a < b;
}

// (sort key, i) for the distinct packed keys `keys`, in Emit order.
std::vector<std::pair<uint64_t, uint32_t>> EmitOrder(
    const std::vector<uint64_t>& keys, bool clustered) {
  std::vector<std::pair<uint64_t, uint32_t>> order;
  order.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    order.emplace_back(EmitSortKey(keys[i], clustered),
                       static_cast<uint32_t>(i));
  }
  std::sort(order.begin(), order.end(),
            [&keys](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return keys[a.second] < keys[b.second];
            });
  return order;
}

// Pulls one ScanSourceOp over all rows of `table` on `disk`, serially,
// executing the given Scan node: rows and batches land on the node, and
// `per_batch(b, e)` sees exactly the fixed-size batch spans the pass
// driver's serial chain sees.
template <typename PerBatch>
void DriveScan(const Table& table, DiskModel& disk, uint64_t batch_rows,
               NodeExec& scan, PerBatch&& per_batch) {
  scan.AddRows(table.num_rows());
  ScanSourceOp op(table, disk, 0, table.num_rows(), batch_rows);
  ClassBatch batch;
  op.Open();
  while (op.NextBatch(batch)) {
    scan.AddBatches(1);
    per_batch(batch.begin, batch.end);
  }
  op.Close();
}

}  // namespace

uint64_t EmitSortKey(uint64_t packed_key, bool clustered) {
  return clustered ? packed_key : HashKey(packed_key);
}

// Aggregates packed group keys -> one SUM per measure column (views must
// carry every measure so any measure query is answerable from them).
class ViewBuilder::MultiAggregator {
 public:
  MultiAggregator(const StarSchema& schema, const GroupBySpec& target,
                  size_t num_measures, uint64_t expected_cells)
      : packer_(schema, target),
        slots_(expected_cells),
        sums_(num_measures) {}

  const KeyPacker& packer() const { return packer_; }
  size_t num_cells() const { return cell_keys_.size(); }
  size_t num_measures() const { return sums_.size(); }

  // Adds one input row: `values[m]` is the row's m-th measure.
  void Add(uint64_t key, const double* values) {
    uint32_t& slot = slots_.FindOrInsert(key);
    if (slot == 0) {
      cell_keys_.push_back(key);
      for (auto& column : sums_) column.push_back(0);
      slot = static_cast<uint32_t>(cell_keys_.size());
    }
    const size_t cell = slot - 1;
    for (size_t m = 0; m < sums_.size(); ++m) {
      sums_[m][cell] += values[m];
    }
  }

  // Batch form: equivalent to Add(keys[i], row base_row + i's measures) for
  // i in [0, n) in order — row-outer, measure-inner, so every per-cell sum
  // folds in exactly the serial order — but reading the measure columns
  // directly instead of staging each row's values.
  void AddBatch(const uint64_t* keys, size_t n,
                const std::vector<const std::vector<double>*>& measure_cols,
                uint64_t base_row) {
    for (size_t i = 0; i < n; ++i) {
      uint32_t& slot = slots_.FindOrInsert(keys[i]);
      if (slot == 0) {
        cell_keys_.push_back(keys[i]);
        for (auto& column : sums_) column.push_back(0);
        slot = static_cast<uint32_t>(cell_keys_.size());
      }
      const size_t cell = slot - 1;
      const uint64_t row = base_row + i;
      for (size_t m = 0; m < sums_.size(); ++m) {
        sums_[m][cell] += (*measure_cols[m])[row];
      }
    }
  }

  uint64_t cell_key(size_t cell) const { return cell_keys_[cell]; }
  const std::vector<uint64_t>& cell_keys() const { return cell_keys_; }
  double cell_sum(size_t measure, size_t cell) const {
    return sums_[measure][cell];
  }

  // Bytes held by the aggregation state (hash slots + key column + sum
  // columns) — the quantity a memory grant caps.
  uint64_t MemoryBytes() const {
    uint64_t bytes = slots_.MemoryBytes() + cell_keys_.size() * 8;
    for (const auto& column : sums_) bytes += column.size() * 8;
    return bytes;
  }

 private:
  KeyPacker packer_;
  FlatHashMap<uint32_t> slots_;  // packed key -> cell index + 1
  std::vector<uint64_t> cell_keys_;
  std::vector<std::vector<double>> sums_;  // [measure][cell]
};

// Per-target plumbing for one pass over a source view. Key translation goes
// through the same dense arrays (exec/dim_translator.h) as query execution.
struct ViewBuilder::TargetState {
  std::unique_ptr<MultiAggregator> agg;
  DimTranslator translator;
  std::vector<const std::vector<double>*> measure_cols;
  // Set by a bounded grant: rows stage (and spill) here in arrival order,
  // and ReplayStage() folds them into `agg` before Emit, per cell in the
  // same order, so the emitted table is bit-identical. Null (the default)
  // keeps every fold on the direct in-memory path.
  std::unique_ptr<SpillStage> stage;
  std::vector<double> values;  // one batch's measures, row-major

  // Batch fold of rows [base_row, base_row + n) whose packed keys are
  // `keys`: MultiAggregator::AddBatch, or the rows staged in the same
  // order.
  void FoldBatch(const uint64_t* keys, size_t n, uint64_t base_row) {
    if (stage == nullptr) {
      agg->AddBatch(keys, n, measure_cols, base_row);
      return;
    }
    const size_t m = measure_cols.size();
    values.resize(n * m);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        values[i * m + j] = (*measure_cols[j])[base_row + i];
      }
    }
    // A failed spill write keeps the rows staged and ends spilling: the
    // target completes in memory.
    stage->Append(keys, values.data(), n);
  }

  // Folds a budgeted target's records into the aggregator; must run before
  // Emit. A failed spill read (an injected fault, a short read, a CRC
  // mismatch) returns its status: the rows exist nowhere else, so the
  // build fails, and the stage's scratch file goes with the state.
  Status ReplayStage() {
    if (stage == nullptr) return Status::Ok();
    return stage->Replay([this](uint64_t key, const double* vals) {
      agg->Add(key, vals);
    });
  }
};

ViewBuilder::TargetState ViewBuilder::MakeTargetState(
    const MaterializedView& source, const GroupBySpec& target) const {
  TargetState state;
  const size_t num_measures = source.table().num_measures();
  state.agg = std::make_unique<MultiAggregator>(
      schema_, target, num_measures,
      std::min<uint64_t>(target.MaxCells(schema_),
                         source.table().num_rows()));
  state.translator =
      DimTranslator(schema_, target, source, state.agg->packer());
  for (size_t m = 0; m < num_measures; ++m) {
    state.measure_cols.push_back(&source.table().measure_column(m));
  }
  return state;
}

void ViewBuilder::RecordBuildMem(const std::vector<TargetState>& states,
                                 NodeExec& agg) {
  MemStats mem;
  uint64_t runs = 0;
  uint64_t bytes = 0;
  for (const TargetState& state : states) {
    mem.hash_bytes += state.agg->MemoryBytes();
    if (state.stage == nullptr) continue;
    mem.hash_bytes += state.stage->peak_staged_bytes();
    runs += state.stage->spill_runs();
    bytes += state.stage->spill_bytes();
  }
  agg.RecordMem(mem);
  if (runs > 0) {
    agg.AddNodeOnlyCounter("spill_runs", runs);
    agg.AddNodeOnlyCounter("spill_bytes", bytes);
  }
}

void ViewBuilder::GrantBudget(TargetState& state, uint64_t consumers) const {
  if (budget_ == nullptr || !budget_->bounded()) return;
  // View builds have no query id; -1 keys their grant/spill fault sites.
  Result<MemoryGrant> grant = budget_->Grant(/*query_id=*/-1, consumers);
  if (!grant.ok()) return;  // denied: this target completes in memory
  state.stage = std::make_unique<SpillStage>(*grant, spill_, /*query_id=*/-1,
                                             state.measure_cols.size());
}

std::unique_ptr<Table> ViewBuilder::Emit(const MultiAggregator& agg,
                                         const GroupBySpec& target,
                                         const Table& source_table,
                                         DiskModel& disk,
                                         bool clustered) const {
  obs::ScopedSpan span("view.emit", target.ToString(schema_));
  span.AddRows(agg.num_cells());
  const auto order = EmitOrder(agg.cell_keys(), clustered);
  const KeyPacker& packer = agg.packer();
  std::vector<std::vector<int32_t>> keys(packer.num_keys());
  std::vector<std::vector<double>> sums(agg.num_measures());
  for (auto& column : keys) column.reserve(order.size());
  for (auto& column : sums) column.reserve(order.size());
  for (const auto& [_, cell] : order) {
    const uint64_t key = agg.cell_key(cell);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i].push_back(packer.Field(key, i));
    }
    for (size_t m = 0; m < sums.size(); ++m) {
      sums[m].push_back(agg.cell_sum(m, cell));
    }
  }
  std::vector<KeyColumn> key_columns;
  key_columns.reserve(keys.size());
  for (auto& column : keys) {
    key_columns.push_back(KeyColumn::FromRaw(std::move(column)));
  }
  return WriteTable(target, source_table, target.ToString(schema_),
                    std::move(key_columns), std::move(sums), disk);
}

std::unique_ptr<Table> ViewBuilder::WriteTable(
    const GroupBySpec& target, const Table& source_table,
    const std::string& name, std::vector<KeyColumn> keys,
    std::vector<std::vector<double>> sums, DiskModel& disk) const {
  std::vector<std::string> measure_names;
  for (size_t m = 0; m < source_table.num_measures(); ++m) {
    measure_names.push_back(source_table.measure_name(m));
  }
  auto table = std::make_unique<Table>(name, target.KeyColumnNames(schema_),
                                       measure_names);
  // Pack before charging the write: the pages written are the pages later
  // scans of this view will read, so both sides price the same layout.
  table->AdoptColumns(std::move(keys), std::move(sums), compressed_pages_);
  disk.WritePages(table->num_pages());
  return table;
}

RefreshedTable ViewBuilder::Refresh(const MaterializedView& view,
                                    const MaterializedView& delta,
                                    DiskModel& disk) const {
  SS_CHECK_MSG(delta.spec().CanAnswer(view.spec()),
               "delta %s cannot refresh view %s", delta.name().c_str(),
               view.name().c_str());
  SS_CHECK_MSG(delta.table().num_measures() == view.table().num_measures(),
               "delta and view measure counts differ");
  static obs::Counter& refreshes = obs::Metrics().counter("view.refreshes");
  refreshes.Add();
  obs::ScopedSpan span("view.refresh", view.spec().ToString(schema_));
  span.AddRows(view.table().num_rows() + delta.table().num_rows());

  // The lowered tree is one Aggregate over two Scans, the view then the
  // delta. The merge reads the old rows in place, so the view's scan only
  // charges their pages; the delta's scan maps its rows to the view's
  // packed keys.
  PhysicalPlan phys;
  const LoweredViewBuild lowered =
      LowerViewBuild(phys, view.spec().ToString(schema_), /*num_scans=*/2);
  const KeyPacker packer(schema_, view.spec());
  const uint64_t batch_rows = policy_.batch.EffectiveBatchRows();
  NodeExec agg(phys, lowered.aggregate, disk);
  {
    NodeExec scan(phys, lowered.scans[0], disk);
    DriveScan(view.table(), disk, batch_rows, scan, [](uint64_t, uint64_t) {});
  }
  std::vector<uint64_t> delta_keys(delta.table().num_rows());
  {
    NodeExec scan(phys, lowered.scans[1], disk);
    const DimTranslator translator(schema_, view.spec(), delta, packer);
    DriveScan(delta.table(), disk, batch_rows, scan,
              [&](uint64_t b, uint64_t e) {
                translator.PackRange(b, static_cast<size_t>(e - b),
                                     delta_keys.data() + b);
              });
  }
  RefreshedTable refreshed =
      MergeDelta(view, packer, delta.table(), delta_keys, disk, span);
  agg.AddRows(refreshed.table->num_rows());
  return refreshed;
}

RefreshedTable ViewBuilder::MergeDelta(
    const MaterializedView& view, const KeyPacker& packer,
    const Table& delta, const std::vector<uint64_t>& delta_keys,
    DiskModel& disk, obs::ScopedSpan& refresh_span) const {
  obs::ScopedSpan span("view.emit", view.spec().ToString(schema_));
  const bool clustered = view.clustered();
  const Table& old = view.table();
  const uint64_t old_rows = old.num_rows();
  const size_t num_measures = old.num_measures();

  // The delta's distinct cells, numbered in arrival order.
  FlatHashMap<uint32_t> slots(std::min<uint64_t>(
      view.spec().MaxCells(schema_), delta_keys.size()));
  std::vector<uint64_t> cell_keys;
  std::vector<uint32_t> cell_of_row(delta_keys.size());
  for (size_t r = 0; r < delta_keys.size(); ++r) {
    uint32_t& slot = slots.FindOrInsert(delta_keys[r]);
    if (slot == 0) {
      cell_keys.push_back(delta_keys[r]);
      slot = static_cast<uint32_t>(cell_keys.size());
    }
    cell_of_row[r] = slot - 1;
  }

  // Each cell's place among the old rows, taking the cells in Emit order:
  // a binary search of the old rows after the previous cell's place. A
  // cell found there starts from 0.0 + its old value, a new one from 0.0;
  // then every delta row adds in arrival order. The search range only
  // shrinks, so rows out of Emit order (a table file written by other
  // means) still keep every index in bounds: such a view may end up with a
  // key twice, but every old row and delta row is kept.
  const DimTranslator old_keys(schema_, view.spec(), view, packer);
  const auto order = EmitOrder(cell_keys, clustered);
  std::vector<uint64_t> place(order.size());  // by Emit-order position
  std::vector<bool> matched(order.size());
  std::vector<double> cell_sums(cell_keys.size() * num_measures);
  uint64_t new_cells = 0;
  uint64_t next = 0;  // first old row after the previous cell
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t cell = order[i].second;
    uint64_t lo = next;
    uint64_t hi = old_rows;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (EmitsBefore(old_keys.PackRow(mid), cell_keys[cell], clustered)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    place[i] = lo;
    matched[i] = lo < old_rows && old_keys.PackRow(lo) == cell_keys[cell];
    for (size_t m = 0; m < num_measures; ++m) {
      cell_sums[cell * num_measures + m] =
          matched[i] ? 0.0 + old.measure(lo, m) : 0.0;
    }
    next = matched[i] ? lo + 1 : lo;
    if (!matched[i]) ++new_cells;
  }
  for (size_t r = 0; r < cell_of_row.size(); ++r) {
    for (size_t m = 0; m < num_measures; ++m) {
      cell_sums[cell_of_row[r] * num_measures + m] += delta.measure(r, m);
    }
  }

  // The refreshed rows: every old row in order, shifted past the new cells
  // inserted before it, each new cell at its place. Untouched rows take
  // 0.0 + value (the fold a cell with no delta row gets), touched and new
  // ones their cell's sum; the new cells' keys are spliced into the key
  // columns.
  RefreshedTable out;
  out.inserted_before.reserve(new_cells);
  std::vector<std::vector<int32_t>> new_keys(packer.num_keys());
  std::vector<std::vector<double>> sums(num_measures);
  for (auto& column : new_keys) column.reserve(new_cells);
  for (auto& column : sums) column.resize(old_rows + new_cells);
  uint64_t shift = 0;  // new cells placed so far
  const auto copy_measures = [&](uint64_t begin, uint64_t end) {
    for (size_t m = 0; m < num_measures; ++m) {
      const double* values = old.measure_column(m).data();
      double* to = sums[m].data() + shift;
      for (uint64_t r = begin; r < end; ++r) to[r] = 0.0 + values[r];
    }
  };
  next = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t cell = order[i].second;
    copy_measures(next, place[i]);
    for (size_t m = 0; m < num_measures; ++m) {
      sums[m][place[i] + shift] = cell_sums[cell * num_measures + m];
    }
    if (matched[i]) {
      next = place[i] + 1;
      continue;
    }
    out.inserted_before.push_back(place[i]);
    for (size_t k = 0; k < new_keys.size(); ++k) {
      new_keys[k].push_back(packer.Field(cell_keys[cell], k));
    }
    next = place[i];
    ++shift;
  }
  copy_measures(next, old_rows);

  std::vector<KeyColumn> keys;
  keys.reserve(new_keys.size());
  uint64_t repacked = 0;
  for (size_t k = 0; k < new_keys.size(); ++k) {
    keys.push_back(KeyColumn::Splice(old.key_column(k), out.inserted_before,
                                     new_keys[k]));
    if (old.key_column(k).packed() && !keys.back().packed()) ++repacked;
  }
  refresh_span.AddCounter("new_cells", new_cells);
  refresh_span.AddCounter("repacked_columns", repacked);
  span.AddRows(old_rows + new_cells);
  out.table = WriteTable(view.spec(), old, view.name(), std::move(keys),
                         std::move(sums), disk);
  return out;
}

Result<std::vector<std::unique_ptr<Table>>> ViewBuilder::Build(
    const MaterializedView& source, const std::vector<GroupBySpec>& targets,
    DiskModel& disk, bool clustered) const {
  // A one-target build is named by its target, a shared one by the view it
  // scans.
  const std::string detail =
      targets.size() == 1 ? targets[0].ToString(schema_) : source.name();
  static obs::Counter& builds = obs::Metrics().counter("view.builds");
  builds.Add(targets.size());
  // Closes after the pass has merged its workers' I/O, so that I/O lands
  // in its delta.
  obs::ScopedSpan span("view.build", detail);
  span.AddRows(source.table().num_rows());
  span.AddCounter("targets", targets.size());

  std::vector<TargetState> states;
  states.reserve(targets.size());
  for (const GroupBySpec& target : targets) {
    SS_CHECK_MSG(source.spec().CanAnswer(target),
                 "view %s cannot materialize %s", source.name().c_str(),
                 target.ToString(schema_).c_str());
    states.push_back(MakeTargetState(source, target));
  }
  for (TargetState& state : states) GrantBudget(state, states.size());

  // A build executes the lowered Aggregate <- Scan tree as one pass of the
  // pass driver, like every other shared pass; parallelism is only a
  // driver property. Slot t carries target t's packed keys, and measure
  // values are re-read by the fold (already charged by the scan). Targets
  // aggregate independently and each sees its rows in ascending order, so
  // folding target by target replays a row-by-row fold of every target
  // exactly.
  const Table& table = source.table();
  const uint64_t batch_rows = policy_.batch.EffectiveBatchRows();
  PhysicalPlan phys;
  const LoweredViewBuild lowered =
      LowerViewBuild(phys, detail, /*num_scans=*/1);
  std::vector<std::unique_ptr<Table>> tables;
  tables.reserve(targets.size());
  {
    NodeExec agg(phys, lowered.aggregate, disk);
    {
      NodeExec scan(phys, lowered.scans[0], disk);
      scan.AddRows(table.num_rows());
      DrivePass(
          policy_, disk, table.num_rows(), table.rows_per_page(),
          states.size(),
          [&](DiskModel& d, uint64_t begin, uint64_t end,
              std::vector<QueryMatchBatch>& out, const auto& on_batch) {
            ScanSourceOp op(table, d, begin, end, batch_rows);
            ClassBatch batch;
            op.Open();
            while (op.NextBatch(batch)) {
              const size_t n = static_cast<size_t>(batch.end - batch.begin);
              for (size_t t = 0; t < states.size(); ++t) {
                std::vector<uint64_t>& keys = out[t].keys;
                const size_t base = keys.size();
                keys.resize(base + n);
                states[t].translator.PackRange(batch.begin, n,
                                               keys.data() + base);
              }
              on_batch(batch.begin);
            }
            op.Close();
          },
          [&](const std::vector<QueryMatchBatch>& out, uint64_t begin) {
            scan.AddBatches(1);
            for (size_t t = 0; t < states.size(); ++t) {
              states[t].FoldBatch(out[t].keys.data(), out[t].size(), begin);
            }
          });
    }
    for (TargetState& state : states) {
      const Status replayed = state.ReplayStage();
      if (!replayed.ok()) {
        agg.SetStatus(replayed);
        span.SetStatus(replayed);
        return replayed;
      }
    }
    uint64_t cells = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      tables.push_back(
          Emit(*states[i].agg, targets[i], table, disk, clustered));
      cells += tables.back()->num_rows();
    }
    agg.AddRows(cells);
    RecordBuildMem(states, agg);
  }
  return tables;
}

}  // namespace starshare
