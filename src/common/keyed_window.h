// The keyed moving window (paper §IV-A: "ring buffers that contain a
// moving window of data with a configurable size"): at most `capacity`
// rows, one per 64-bit key, evicting the oldest arrival once full. The
// monitor's statement and template registries and each plan-cache
// stripe are one each.
//
// Rows live beside their keys in a slot array filled in arrival order,
// grown as rows arrive up to the window. Once it is full, Insert hands
// back the oldest arrival's slot with the evicted row still in it: the
// caller reads what it needs, then overwrites it (reusing its buffers).
// An open-addressed (linear probing, backward-shift deletion) index of
// 2 x capacity (rounded up to a power of two) 16-byte entries, allocated
// up front, maps a key to its slot; each entry carries the key, so a
// probe compares entries without touching slots.

#ifndef IMON_COMMON_KEYED_WINDOW_H_
#define IMON_COMMON_KEYED_WINDOW_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace imon {

template <typename Row>
class KeyedWindow {
 public:
  struct Slot {
    uint64_t key = 0;
    Row row{};
  };

  explicit KeyedWindow(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        index_(std::bit_ceil(2 * capacity_)),
        shift_(64 - std::countr_zero(index_.size())) {}

  /// The row of `key`, or null.
  Row* Find(uint64_t key) {
    for (size_t i = Home(key);; i = Next(i)) {
      const Entry& e = index_[i];
      if (e.slot == kEmpty) return nullptr;
      if (e.key == key) return &slots_[e.slot].row;
    }
  }

  /// The slot for a key that is not present: a fresh one holding a
  /// default row, or, at capacity, the oldest arrival's with its evicted
  /// row still in it.
  Row& Insert(uint64_t key) {
    uint32_t slot;
    if (slots_.size() < capacity_) {
      slot = static_cast<uint32_t>(slots_.size());
      // Grow by doubling, never past the window.
      if (slot == slots_.capacity()) {
        slots_.reserve(std::min(capacity_, 2 * size_t{slot} + 4));
      }
      slots_.emplace_back();
    } else {
      slot = static_cast<uint32_t>(oldest_);
      if (++oldest_ == capacity_) oldest_ = 0;
      Erase(slots_[slot].key);
    }
    size_t i = Home(key);
    while (index_[i].slot != kEmpty) i = Next(i);
    index_[i] = Entry{key, slot};
    slots_[slot].key = key;
    return slots_[slot].row;
  }

  /// Every (key, row), in no particular order.
  const std::vector<Slot>& slots() const { return slots_; }

  void Clear() {
    slots_.clear();
    oldest_ = 0;
    index_.assign(index_.size(), Entry{});
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Entry {
    uint64_t key = 0;
    uint32_t slot = kEmpty;
  };

  /// Fibonacci hashing: the top bits of key * 2^64/phi, since FNV-1a's
  /// low bits are weakly mixed.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  size_t Next(size_t i) const { return (i + 1) & (index_.size() - 1); }

  /// Remove `key` (present) and shift later entries of its probe run
  /// back, so lookups need no tombstones.
  void Erase(uint64_t key) {
    size_t hole = Home(key);
    while (index_[hole].key != key || index_[hole].slot == kEmpty) {
      hole = Next(hole);
    }
    for (size_t j = Next(hole);; j = Next(j)) {
      if (index_[j].slot == kEmpty) break;
      // An entry may fill the hole unless its home lies cyclically in
      // (hole, j]: then it would land before its home.
      size_t home = Home(index_[j].key);
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
  std::vector<Slot> slots_;
  std::vector<Entry> index_;
  int shift_;
};

}  // namespace imon

#endif  // IMON_COMMON_KEYED_WINDOW_H_
