#include "exec/spill.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <queue>
#include <utility>

#include "common/fault_injector.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace starshare {
namespace {

// Process-wide uniquifier so two consumers of the same query (or two
// engines in one process) never collide on a name.
std::atomic<uint64_t> g_spill_sequence{0};

Status SpillError(const char* what, const std::string& path) {
  return Status::ResourceExhausted(
      StrFormat("spill %s failed: %s", what, path.c_str()));
}

obs::Counter& RunCounter() {
  static obs::Counter& c = obs::Metrics().counter("exec.spill.runs");
  return c;
}
obs::Counter& ByteCounter() {
  static obs::Counter& c = obs::Metrics().counter("exec.spill.bytes");
  return c;
}

}  // namespace

std::string DefaultScratchDir() {
  const char* env = std::getenv("TMPDIR");
  return (env != nullptr && *env != '\0') ? env : "/tmp";
}

SpillFile::SpillFile(const SpillConfig& config, int query_id,
                     size_t doubles_per_record)
    : query_id_(query_id), doubles_(doubles_per_record) {
  const std::string dir =
      config.scratch_dir.empty() ? DefaultScratchDir() : config.scratch_dir;
  path_ = StrFormat(
      "%s/starshare-spill-q%d-p%ld-%llu.run", dir.c_str(), query_id,
      static_cast<long>(getpid()),
      static_cast<unsigned long long>(
          g_spill_sequence.fetch_add(1, std::memory_order_relaxed)));
}

SpillFile::~SpillFile() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(path_.c_str());
  }
}

Status SpillFile::OpenAndSeek(uint64_t offset, const char* what) {
  if (file_ == nullptr) {
    file_ = std::fopen(path_.c_str(), "wb+");
    if (file_ == nullptr) return SpillError("open", path_);
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return SpillError(what, path_);
  }
  return Status::Ok();
}

Status SpillFile::AppendRun(const uint64_t* keys, const double* values,
                            uint64_t rows) {
  if (FaultHit("spill.write", query_id_) == FaultKind::kError) {
    return SpillError("write (injected)", path_);
  }
  SS_RETURN_IF_ERROR(OpenAndSeek(end_offset_, "seek"));
  // Keys arrive sorted ascending, so the first key is the frame of
  // reference and the last key bounds the delta domain.
  const uint64_t ref = rows > 0 ? keys[0] : 0;
  const uint64_t range = rows > 0 ? keys[rows - 1] - ref : 0;
  const uint32_t bits =
      range == 0 ? 1 : static_cast<uint32_t>(std::bit_width(range));

  if (std::fwrite(&rows, 1, 8, file_) != 8 ||
      std::fwrite(&bits, 1, 4, file_) != 4 ||
      std::fwrite(&ref, 1, 8, file_) != 8) {
    return SpillError("write", path_);
  }

  std::vector<uint64_t> words(KeyWords(rows, bits), 0);
  for (uint64_t i = 0; i < rows; ++i) {
    const uint64_t delta = keys[i] - ref;
    const uint64_t pos = i * bits;
    const uint64_t off = pos & 63;
    words[pos >> 6] |= delta << off;
    if (off + bits > 64) words[(pos >> 6) + 1] |= delta >> (64 - off);
  }
  const size_t key_bytes = words.size() * 8;
  const uint32_t key_crc = Crc32(words.data(), key_bytes);
  if (std::fwrite(words.data(), 1, key_bytes, file_) != key_bytes ||
      std::fwrite(&key_crc, 1, 4, file_) != 4) {
    return SpillError("write", path_);
  }

  const size_t val_bytes = static_cast<size_t>(rows) * value_size();
  const uint32_t val_crc = Crc32(values, val_bytes);
  if ((val_bytes > 0 &&
       std::fwrite(values, 1, val_bytes, file_) != val_bytes) ||
      std::fwrite(&val_crc, 1, 4, file_) != 4) {
    return SpillError("write", path_);
  }

  RunInfo info;
  info.payload_offset = end_offset_ + 8 + 4 + 8;
  info.rows = rows;
  info.key_bits = bits;
  info.key_ref = ref;
  runs_.push_back(info);
  const uint64_t run_bytes = 8 + 4 + 8 + key_bytes + 4 + val_bytes + 4;
  end_offset_ += run_bytes;
  spilled_rows_ += rows;
  spilled_bytes_ += run_bytes;
  RunCounter().Add();
  ByteCounter().Add(run_bytes);
  return Status::Ok();
}

Status SpillFile::Merge(
    uint64_t chunk_budget_bytes,
    const std::function<void(uint64_t, const double*)>& emit) {
  if (runs_.empty()) return Status::Ok();
  if (std::fflush(file_) != 0) return SpillError("flush", path_);
  const size_t val_rec = value_size();
  // Bound total read-buffer bytes by the budget, counting 8 bytes per key
  // (packed key words take at most that): with R runs each buffer holds
  // budget/(record*R) records, floored at 1 (a 1-byte budget still merges,
  // one record at a time) and capped at 1024.
  const uint64_t chunk_rows = std::clamp<uint64_t>(
      chunk_budget_bytes / ((8 + val_rec) * runs_.size()), 1, 1024);

  struct Cursor {
    uint64_t rows_left = 0;   // rows not yet buffered
    uint64_t rec = 0;         // current record index within the run
    uint64_t buf_first = 0;   // first buffered record index
    uint64_t buf_end = 0;     // one past the last buffered record
    // Key word window [word_lo, word_lo + words.size()). Chunk boundaries
    // rarely align to words, so consecutive windows overlap by at most one
    // word; crc_words is the watermark of words already checksummed, which
    // keeps the linear key CRC exact despite the overlap.
    std::vector<uint64_t> words;
    uint64_t word_lo = 0;
    uint64_t crc_words = 0;
    Crc32Accumulator key_crc;
    std::vector<uint8_t> vals;  // value bytes of the buffered records
    Crc32Accumulator val_crc;
  };
  std::vector<Cursor> cursors(runs_.size());

  const auto refill = [&](size_t r) -> Status {
    Cursor& cur = cursors[r];
    const RunInfo& run = runs_[r];
    const std::optional<FaultKind> fault = FaultHit("spill.read", query_id_);
    if (fault == FaultKind::kError) {
      return SpillError("read (injected)", path_);
    }
    const uint64_t first = cur.buf_end;
    const uint64_t n = std::min(cur.rows_left, chunk_rows);
    const uint32_t bits = run.key_bits;
    const uint64_t total_words = KeyWords(run.rows, bits);
    const uint64_t wlo = first * bits / 64;
    const uint64_t whi = ((first + n) * bits + 63) / 64;
    const uint64_t val_off =
        run.payload_offset + total_words * 8 + 4 + first * val_rec;

    cur.words.resize(whi - wlo);
    if (std::fseek(file_,
                   static_cast<long>(run.payload_offset + wlo * 8),
                   SEEK_SET) != 0) {
      return SpillError("seek", path_);
    }
    const size_t key_want = cur.words.size() * 8;
    if (fault == FaultKind::kShortRead && key_want > 0) {
      std::fread(cur.words.data(), 1, key_want - 1, file_);
      return SpillError("short read (injected)", path_);
    }
    if (std::fread(cur.words.data(), 1, key_want, file_) != key_want) {
      return SpillError("read", path_);
    }
    cur.vals.resize(static_cast<size_t>(n) * val_rec);
    if (std::fseek(file_, static_cast<long>(val_off), SEEK_SET) != 0) {
      return SpillError("seek", path_);
    }
    if (std::fread(cur.vals.data(), 1, cur.vals.size(), file_) !=
        cur.vals.size()) {
      return SpillError("read", path_);
    }
    // Bytes not yet checksummed this refill: the key words past the
    // watermark plus the freshly read values. A bit flip lands among them,
    // so the damage is always inside what the CRCs still cover.
    const size_t new_key_bytes =
        static_cast<size_t>(whi - cur.crc_words) * 8;
    if (fault == FaultKind::kBitFlip &&
        new_key_bytes + cur.vals.size() > 0) {
      const uint64_t bit = FaultInjector::Instance().NextBitIndex(
          new_key_bytes + cur.vals.size());
      if (bit / 8 < new_key_bytes) {
        const size_t byte = (cur.crc_words - wlo) * 8 + bit / 8;
        reinterpret_cast<uint8_t*>(cur.words.data())[byte] ^=
            static_cast<uint8_t>(1u << (bit % 8));
      } else {
        const size_t byte = bit / 8 - new_key_bytes;
        cur.vals[byte] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
    }
    cur.key_crc.Update(
        reinterpret_cast<const uint8_t*>(cur.words.data()) +
            (cur.crc_words - wlo) * 8,
        new_key_bytes);
    cur.crc_words = whi;
    cur.val_crc.Update(cur.vals.data(), cur.vals.size());

    cur.word_lo = wlo;
    cur.buf_first = first;
    cur.buf_end = first + n;
    cur.rec = first;
    cur.rows_left -= n;

    if (cur.rows_left == 0) {
      // Last chunk: both section CRCs are now complete; compare them with
      // the stored ones.
      uint32_t stored_key = 0;
      uint32_t stored_val = 0;
      if (std::fseek(file_,
                     static_cast<long>(run.payload_offset + total_words * 8),
                     SEEK_SET) != 0 ||
          std::fread(&stored_key, 1, 4, file_) != 4) {
        return SpillError("read", path_);
      }
      if (std::fseek(file_,
                     static_cast<long>(run.payload_offset + total_words * 8 +
                                       4 + run.rows * val_rec),
                     SEEK_SET) != 0 ||
          std::fread(&stored_val, 1, 4, file_) != 4) {
        return SpillError("read", path_);
      }
      if (stored_key != cur.key_crc.value() ||
          stored_val != cur.val_crc.value()) {
        return SpillError("checksum", path_);
      }
    }
    return Status::Ok();
  };

  const auto current_key = [&](size_t r) {
    const Cursor& cur = cursors[r];
    const RunInfo& run = runs_[r];
    const uint32_t bits = run.key_bits;
    const uint64_t mask =
        bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    const uint64_t pos = cur.rec * bits - cur.word_lo * 64;
    const uint64_t off = pos & 63;
    uint64_t v = cur.words[pos >> 6] >> off;
    if (off + bits > 64) v |= cur.words[(pos >> 6) + 1] << (64 - off);
    return run.key_ref + (v & mask);
  };

  using Entry = std::pair<uint64_t, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (size_t r = 0; r < runs_.size(); ++r) {
    cursors[r].rows_left = runs_[r].rows;
    if (runs_[r].rows == 0) continue;
    SS_RETURN_IF_ERROR(refill(r));
    heap.emplace(current_key(r), r);
  }

  while (!heap.empty()) {
    const auto [key, r] = heap.top();
    heap.pop();
    Cursor& cur = cursors[r];
    emit(key, reinterpret_cast<const double*>(
                  cur.vals.data() +
                  static_cast<size_t>(cur.rec - cur.buf_first) * val_rec));
    ++cur.rec;
    if (cur.rec >= cur.buf_end) {
      if (cur.rows_left == 0) continue;  // run exhausted
      SS_RETURN_IF_ERROR(refill(r));
    }
    heap.emplace(current_key(r), r);
  }
  return Status::Ok();
}

SpillStage::SpillStage(const MemoryGrant& grant, const SpillConfig& config,
                       int query_id, size_t doubles_per_record)
    : grant_(grant),
      doubles_(doubles_per_record),
      file_(std::make_unique<SpillFile>(config, query_id,
                                        doubles_per_record)) {}

std::vector<uint32_t> SpillStage::StableKeyOrder() const {
  std::vector<uint32_t> order(keys_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return keys_[a] < keys_[b];
  });
  return order;
}

Status SpillStage::Append(const uint64_t* keys, const double* values,
                          size_t n) {
  keys_.insert(keys_.end(), keys, keys + n);
  values_.insert(values_.end(), values, values + n * doubles_);
  peak_staged_bytes_ = std::max(peak_staged_bytes_, StagedBytes());
  if (!spilling_ || !grant_.WouldExceed(StagedBytes())) return Status::Ok();

  // Stable sort by key: equal keys keep arrival order within the run, the
  // invariant Replay's (key, run index) order relies on.
  const std::vector<uint32_t> order = StableKeyOrder();
  std::vector<uint64_t> sorted_keys(keys_.size());
  std::vector<double> sorted_values(values_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_keys[i] = keys_[order[i]];
    std::memcpy(&sorted_values[i * doubles_], &values_[order[i] * doubles_],
                8 * doubles_);
  }
  const Status written = file_->AppendRun(
      sorted_keys.data(), sorted_values.data(), sorted_keys.size());
  if (!written.ok()) {
    spilling_ = false;
    return written;
  }
  ++spill_runs_;
  spill_bytes_ = file_->spilled_bytes();
  keys_.clear();
  values_.clear();
  return Status::Ok();
}

Status SpillStage::Replay(
    const std::function<void(uint64_t, const double*)>& fold) {
  const auto staged = [this](size_t i) { return &values_[i * doubles_]; };
  if (file_->empty()) {
    for (size_t i = 0; i < keys_.size(); ++i) fold(keys_[i], staged(i));
  } else {
    // The staged tail arrived after every run: replay it in key order
    // (stable, so arrival order per key), each key's records after that
    // key's on-disk ones.
    const std::vector<uint32_t> tail = StableKeyOrder();
    size_t next = 0;
    SS_RETURN_IF_ERROR(file_->Merge(
        grant_.cap_bytes, [&](uint64_t key, const double* values) {
          for (; next < tail.size() && keys_[tail[next]] < key; ++next) {
            fold(keys_[tail[next]], staged(tail[next]));
          }
          fold(key, values);
        }));
    for (; next < tail.size(); ++next) {
      fold(keys_[tail[next]], staged(tail[next]));
    }
  }
  keys_ = {};
  values_ = {};
  file_.reset();  // removes the scratch file
  return Status::Ok();
}

}  // namespace starshare
