// Operator micro-benchmarks (google-benchmark): the primitives the shared
// star-join operators are built from. Not a paper table — used to validate
// the cost model's CPU constants and catch performance regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "cube/view_builder.h"
#include "exec/executor.h"
#include "exec/flat_hash.h"
#include "exec/hash_aggregator.h"
#include "exec/operators/class_pipeline.h"
#include "exec/vector_batch.h"
#include "index/bitmap.h"
#include "schema/data_generator.h"
#include "storage/packed_column.h"

namespace starshare {
namespace {

void BM_BitmapOr(benchmark::State& state) {
  const uint64_t bits = static_cast<uint64_t>(state.range(0));
  Bitmap a(bits), b(bits);
  Rng rng(1);
  for (uint64_t i = 0; i < bits / 16; ++i) {
    a.Set(rng.NextBounded(bits));
    b.Set(rng.NextBounded(bits));
  }
  for (auto _ : state) {
    Bitmap c = Bitmap::Or(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bits / 64));
}
BENCHMARK(BM_BitmapOr)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitmapCountSetBits(benchmark::State& state) {
  const uint64_t bits = static_cast<uint64_t>(state.range(0));
  Bitmap a(bits);
  Rng rng(2);
  for (uint64_t i = 0; i < bits / 8; ++i) a.Set(rng.NextBounded(bits));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CountSetBits());
  }
}
BENCHMARK(BM_BitmapCountSetBits)->Arg(1 << 20);

void BM_BitmapIterate(benchmark::State& state) {
  const uint64_t bits = 1 << 20;
  Bitmap a(bits);
  Rng rng(3);
  for (uint64_t i = 0; i < bits / 32; ++i) a.Set(rng.NextBounded(bits));
  for (auto _ : state) {
    uint64_t sum = 0;
    a.ForEachSetBit([&sum](uint64_t pos) { sum += pos; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitmapIterate);

void BM_FlatHashAggregate(benchmark::State& state) {
  const uint64_t groups = static_cast<uint64_t>(state.range(0));
  Rng rng(4);
  std::vector<uint64_t> keys(1 << 16);
  for (auto& k : keys) k = rng.NextBounded(groups);
  for (auto _ : state) {
    FlatHashMap<double> map(groups);
    for (uint64_t k : keys) map.FindOrInsert(k) += 1.0;
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_FlatHashAggregate)->Arg(64)->Arg(4096)->Arg(1 << 16);

struct JoinFixture {
  StarSchema schema;
  DiskModel disk;
  std::unique_ptr<Table> table;
  std::unique_ptr<MaterializedView> view;
  std::vector<DimensionalQuery> queries;

  explicit JoinFixture(uint64_t rows)
      : schema(StarSchema::PaperTestSchema()) {
    DataGenerator gen(schema, {.num_rows = rows, .seed = 5});
    table = gen.Generate("ABCD");
    view = std::make_unique<MaterializedView>(
        schema, GroupBySpec::Base(schema), table.get());
    for (size_t d = 0; d < schema.num_dims(); ++d) {
      view->BuildIndex(schema, d, disk);
    }
    for (int i = 0; i < 4; ++i) {
      QueryPredicate pred;
      pred.AddConjunct(schema.dim(0), DimPredicate{0, 2, {i % 3}});
      pred.AddConjunct(schema.dim(3), DimPredicate{3, 1, {i}});
      queries.emplace_back(i + 1, "bench",
                           GroupBySpec::Parse("A'B''", schema).value(),
                           std::move(pred));
    }
  }
};

void BM_HashStarJoin(benchmark::State& state) {
  JoinFixture f(static_cast<uint64_t>(state.range(0)));
  const Executor executor(f.schema, f.disk);
  for (auto _ : state) {
    Result<QueryResult> r =
        executor.ExecuteSingle(f.queries[0], *f.view, JoinMethod::kHashScan);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashStarJoin)->Arg(100000);

void BM_SharedScan4Queries(benchmark::State& state) {
  JoinFixture f(static_cast<uint64_t>(state.range(0)));
  SharedClassRequest req;
  req.schema = &f.schema;
  for (const auto& q : f.queries) req.hash_queries.push_back(&q);
  req.view = f.view.get();
  req.disk = &f.disk;
  for (auto _ : state) {
    Result<SharedOutcome> r = ExecuteSharedClass(req);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SharedScan4Queries)->Arg(100000);

void BM_IndexStarJoin(benchmark::State& state) {
  JoinFixture f(static_cast<uint64_t>(state.range(0)));
  const Executor executor(f.schema, f.disk);
  for (auto _ : state) {
    Result<QueryResult> r = executor.ExecuteSingle(f.queries[0], *f.view,
                                                   JoinMethod::kIndexProbe);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IndexStarJoin)->Arg(100000);

void BM_ViewBuild(benchmark::State& state) {
  JoinFixture f(static_cast<uint64_t>(state.range(0)));
  ViewBuilder builder(f.schema);
  const GroupBySpec spec = GroupBySpec::Parse("A'B'C'D", f.schema).value();
  for (auto _ : state) {
    auto t = builder.Build(*f.view, {spec}, f.disk).value();
    benchmark::DoNotOptimize(t[0]->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ViewBuild)->Arg(100000);

// The star-join filter's first pass: a range select over 1.71M packed
// 14-bit keys (paper_batch's A'B'C'D view holds that many rows) in batches
// of kDefaultBatchRows, by the dispatched kernel (dispatched:1, the AVX-512
// one where the CPU has it) and by the scalar one (dispatched:0).
void BM_SelectInRange(benchmark::State& state) {
  constexpr uint64_t kRows = 1'710'000;
  Rng rng(6);
  std::vector<int32_t> values(kRows);
  for (int32_t& v : values) v = static_cast<int32_t>(rng.NextBounded(1 << 14));
  KeyColumn col = KeyColumn::FromRaw(std::move(values));
  col.Pack();
  const auto kernel = state.range(0) == 1 ? &KeyColumn::SelectInRange
                                          : &KeyColumn::SelectInRangeScalar;
  std::vector<uint64_t> rows(kDefaultBatchRows);
  std::vector<int32_t> keys(kDefaultBatchRows);
  for (auto _ : state) {
    size_t selected = 0;
    for (uint64_t b = 0; b < kRows; b += kDefaultBatchRows) {
      const uint64_t e = std::min<uint64_t>(kRows, b + kDefaultBatchRows);
      selected += (col.*kernel)(b, e, 0, 244, rows.data(), keys.data());
    }
    benchmark::DoNotOptimize(selected);
    benchmark::DoNotOptimize(rows.data());
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_SelectInRange)->ArgName("dispatched")->Arg(0)->Arg(1);

}  // namespace
}  // namespace starshare

BENCHMARK_MAIN();
