#include "parallel/morsel.h"

#include <algorithm>

#include "common/macros.h"

namespace starshare {

MorselDispatcher::MorselDispatcher(uint64_t num_rows, uint64_t morsel_rows,
                                   uint64_t window)
    : num_rows_(num_rows),
      morsel_rows_(std::max<uint64_t>(1, morsel_rows)),
      num_morsels_(num_rows == 0 ? 0
                                 : (num_rows + morsel_rows_ - 1) / morsel_rows_),
      window_(window) {}

std::optional<Morsel> MorselDispatcher::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  if (next_index_ >= num_morsels_) return std::nullopt;
  if (window_ > 0) {
    window_open_.wait(lock, [this] {
      return next_index_ >= num_morsels_ ||
             next_index_ < consumed_floor_ + window_;
    });
    if (next_index_ >= num_morsels_) return std::nullopt;
  }
  Morsel m;
  m.index = next_index_++;
  m.begin = m.index * morsel_rows_;
  m.end = std::min(m.begin + morsel_rows_, num_rows_);
  return m;
}

void MorselDispatcher::MarkConsumed(uint64_t morsel_index) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SS_DCHECK(morsel_index == consumed_floor_);
    consumed_floor_ = morsel_index + 1;
  }
  if (window_ > 0) window_open_.notify_all();
}

uint64_t MorselDispatcher::MorselRows(uint64_t requested,
                                      uint64_t rows_per_page) {
  const uint64_t rows = requested > 0 ? requested : kMinMorselRows;
  const uint64_t rpp = std::max<uint64_t>(1, rows_per_page);
  return ((rows + rpp - 1) / rpp) * rpp;
}

}  // namespace starshare
