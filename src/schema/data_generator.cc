#include "schema/data_generator.h"

#include <vector>

#include "common/rng.h"
#include "schema/groupby_spec.h"

namespace starshare {

std::unique_ptr<Table> DataGenerator::Generate(
    const std::string& table_name) const {
  auto table = std::make_unique<Table>(
      table_name, GroupBySpec::Base(schema_).KeyColumnNames(schema_),
      schema_.measure_names());
  table->Reserve(config_.num_rows);

  Rng rng(config_.seed);
  std::vector<std::unique_ptr<ZipfGenerator>> zipfs(schema_.num_dims());
  for (size_t d = 0; d < schema_.num_dims(); ++d) {
    if (schema_.zipf_theta(d) > 0) {
      zipfs[d] = std::make_unique<ZipfGenerator>(
          schema_.dim(d).cardinality(0), schema_.zipf_theta(d));
    }
  }

  std::vector<int32_t> keys(schema_.num_dims());
  std::vector<double> measures(schema_.num_measures());
  const double measure_span = config_.measure_max - config_.measure_min;
  for (uint64_t row = 0; row < config_.num_rows; ++row) {
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      const uint64_t card = schema_.dim(d).cardinality(0);
      keys[d] = static_cast<int32_t>(
          zipfs[d] != nullptr ? zipfs[d]->Next(rng) : rng.NextBounded(card));
    }
    for (double& m : measures) {
      m = config_.measure_min + rng.NextDouble() * measure_span;
      if (config_.integer_measures) m = static_cast<double>(static_cast<int64_t>(m));
    }
    table->AppendRowM(keys.data(), measures.data());
  }
  return table;
}

}  // namespace starshare
