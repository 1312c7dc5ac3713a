// The ordered moving window: a fixed-capacity ring that overwrites its
// oldest entry once full.
//
// "To limit the overall memory requirements for the monitoring, all data
// structures were implemented as ring buffers that contain a moving
// window of data with a configurable size." (paper §IV-A)
//
// The monitor's workload and statistics windows and each resolution of
// the metrics history are one each. Storage is reserved at full capacity
// up front and never grows past it.

#ifndef IMON_COMMON_RING_BUFFER_H_
#define IMON_COMMON_RING_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace imon {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    items_.reserve(capacity_);
  }

  /// Append, overwriting the oldest entry when full.
  void Push(T item) { PushSlot() = std::move(item); }

  /// Slot-overwrite push: claims the slot the next entry occupies and
  /// returns it for the caller to fill in place. Once the ring is full
  /// that slot holds the oldest entry (still readable until overwritten),
  /// so assigning into its members reuses their buffers instead of
  /// freeing them.
  T& PushSlot() {
    if (items_.size() < capacity_) return items_.emplace_back();
    T& slot = items_[head_];
    if (++head_ == capacity_) head_ = 0;
    ++overwritten_;
    return slot;
  }

  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return items_.size() == capacity_; }
  /// Entries lost to wrap-around since construction.
  int64_t overwritten() const { return overwritten_; }

  /// The i-th entry in arrival order (0 = oldest), i < size().
  const T& operator[](size_t i) const {
    size_t at = head_ + i;
    return items_[at < items_.size() ? at : at - items_.size()];
  }

  /// The newest entry, size() > 0.
  T& back() { return items_[(head_ == 0 ? items_.size() : head_) - 1]; }

  /// Copy the newest suffix of entries for which `is_new` holds, in
  /// arrival order. Entries arrive with monotonically increasing
  /// sequence numbers, so walking backward from the newest and stopping
  /// at the first old entry touches only the new region — the cost of an
  /// incremental poll is proportional to what it returns.
  template <typename Pred>
  std::vector<T> SnapshotTail(Pred is_new) const {
    std::vector<T> out;
    size_t n = items_.size();
    for (size_t i = 0; i < n; ++i) {
      const T& item = items_[(head_ + n - 1 - i) % n];
      if (!is_new(item)) break;
      out.push_back(item);
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  void Clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  size_t capacity_;
  size_t head_ = 0;  // index of the oldest element once full
  std::vector<T> items_;
  int64_t overwritten_ = 0;
};

}  // namespace imon

#endif  // IMON_COMMON_RING_BUFFER_H_
