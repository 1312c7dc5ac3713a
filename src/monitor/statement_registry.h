// The monitor's per-shard statement registry (imp_statements): one row
// per distinct statement hash, bounded to the statement window.
//
// Rows live in a slot array filled in arrival order. Once it is full the
// next new statement overwrites the oldest arrival's slot, assigning its
// text into the evicted string, so churn allocates nothing. An
// open-addressed (linear probing, backward-shift deletion) index maps a
// hash to its slot; each index entry carries the hash, so a probe
// compares entries without touching the slots.

#ifndef IMON_MONITOR_STATEMENT_REGISTRY_H_
#define IMON_MONITOR_STATEMENT_REGISTRY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace imon::monitor {

struct StatementRecord {
  uint64_t hash = 0;
  std::string text;
  int64_t frequency = 0;
  int64_t first_seen_micros = 0;
  int64_t last_seen_micros = 0;
  /// Bumped every time the record changes (insert or frequency update),
  /// from its own seq domain; lets the daemon poll only changed rows.
  int64_t seq = 0;
};

class StatementRegistry {
 public:
  explicit StatementRegistry(size_t window)
      : capacity_(window == 0 ? 1 : window),
        index_(std::bit_ceil(2 * capacity_)),
        shift_(64 - std::countr_zero(index_.size())) {
    slots_.reserve(capacity_);
  }

  /// The row of `hash`, or null.
  StatementRecord* Find(uint64_t hash) {
    for (size_t i = Home(hash);; i = Next(i)) {
      const Entry& e = index_[i];
      if (e.slot == kEmpty) return nullptr;
      if (e.hash == hash) return &slots_[e.slot];
    }
  }

  /// The slot for a hash that is not registered: a fresh one, or, at
  /// capacity, the oldest arrival's (its text buffer kept). The caller
  /// fills every field but the hash.
  StatementRecord& Insert(uint64_t hash) {
    uint32_t slot;
    if (slots_.size() < capacity_) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = static_cast<uint32_t>(oldest_);
      if (++oldest_ == capacity_) oldest_ = 0;
      Erase(slots_[slot].hash);
    }
    size_t i = Home(hash);
    while (index_[i].slot != kEmpty) i = Next(i);
    index_[i] = Entry{hash, slot};
    slots_[slot].hash = hash;
    return slots_[slot];
  }

  /// Every row, in no particular order.
  const std::vector<StatementRecord>& rows() const { return slots_; }

  void Clear() {
    slots_.clear();
    oldest_ = 0;
    index_.assign(index_.size(), Entry{});
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Entry {
    uint64_t hash = 0;
    uint32_t slot = kEmpty;
  };

  /// Fibonacci hashing: the top bits of hash * 2^64/phi, since FNV-1a's
  /// low bits are weakly mixed.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  size_t Next(size_t i) const { return (i + 1) & (index_.size() - 1); }

  /// Remove `hash` (present) and shift later entries of its probe run
  /// back, so lookups need no tombstones.
  void Erase(uint64_t hash) {
    size_t hole = Home(hash);
    while (index_[hole].hash != hash || index_[hole].slot == kEmpty) {
      hole = Next(hole);
    }
    for (size_t j = Next(hole);; j = Next(j)) {
      if (index_[j].slot == kEmpty) break;
      // An entry may fill the hole unless its home lies cyclically in
      // (hole, j]: then it would land before its home.
      size_t home = Home(index_[j].hash);
      bool home_in_gap = hole <= j ? (hole < home && home <= j)
                                   : (hole < home || home <= j);
      if (home_in_gap) continue;
      index_[hole] = index_[j];
      hole = j;
    }
    index_[hole] = Entry{};
  }

  size_t capacity_;
  /// Slot the next arrival overwrites once the array is full.
  size_t oldest_ = 0;
  std::vector<StatementRecord> slots_;
  std::vector<Entry> index_;
  int shift_;
};

}  // namespace imon::monitor

#endif  // IMON_MONITOR_STATEMENT_REGISTRY_H_
