// Sharded, scan-resistant buffer pool with pin/unpin page guards and
// hit/miss accounting.
//
// The pool is partitioned by page-id hash into independent shards, each
// with its own mutex, page table, free list and replacer, so concurrent
// scan workers fault pages without serializing on one global lock.
// Eviction within a shard is segmented LRU (an LRU-2 approximation): a
// page faulted in by a scan sits in the probationary *cold* segment and
// is evicted before any page of the protected *hot* segment, which a
// frame enters only on its second reference. A 100k-row table scan
// therefore recycles its own cold frames instead of flushing hot
// catalog/index pages.
//
// Cache-usage counters (logical reads, physical reads, hit ratio) feed the
// monitor's system-wide statistics table, and the cache warm-up behaviour
// is what produces the paper's Fig. 5 effect: the first execution of a
// statement pays physical reads, repetitions become CPU-only and the fixed
// monitoring cost dominates.

#ifndef IMON_STORAGE_BUFFER_POOL_H_
#define IMON_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace imon::storage {

class BufferPool;

/// RAII pin on one buffered page. Move-only; unpins on destruction.
/// Mutating accessors mark the frame dirty.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t shard, size_t frame, char* data,
            PageId pid)
      : pool_(pool), shard_(shard), frame_(frame), data_(data), pid_(pid) {}
  ~PageGuard() { Release(); }

  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    Release();
    pool_ = o.pool_;
    shard_ = o.shard_;
    frame_ = o.frame_;
    data_ = o.data_;
    pid_ = o.pid_;
    o.pool_ = nullptr;
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return pid_; }

  /// Read-only view.
  PageView Read() const { return PageView(data_); }
  /// Mutable view; marks the page dirty.
  PageView Write();

  /// Unpin early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t shard_ = 0;
  size_t frame_ = 0;
  char* data_ = nullptr;
  PageId pid_;
};

struct BufferPoolStats {
  int64_t logical_reads = 0;   ///< page fetches (hits + misses)
  int64_t physical_reads = 0;  ///< fetches that went to disk
  int64_t evictions = 0;
  int64_t dirty_writebacks = 0;
};

/// Per-shard snapshot for tests and introspection.
struct BufferPoolShardInfo {
  size_t capacity = 0;        ///< frames owned by this shard
  size_t resident_pages = 0;  ///< frames currently holding a page
  size_t pinned_frames = 0;
  size_t hot_frames = 0;  ///< resident frames in the protected segment
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
};

/// Fixed-capacity page cache over a DiskManager, hash-partitioned into
/// `shards` independent sub-pools. Thread-safe: each shard has its own
/// mutex guarding its mapping/replacer; concurrent access to page
/// *contents* is serialized by the engine's lock manager (readers share,
/// writers hold exclusive table locks).
class BufferPool {
 public:
  /// `shards` defaults to 1 (a classic single-instance pool). Shards are
  /// clamped to [1, capacity_pages / kMinFramesPerShard] so every shard
  /// owns at least kMinFramesPerShard frames (a pool smaller than that
  /// is one shard).
  BufferPool(DiskManager* disk, size_t capacity_pages, size_t shards = 1);
  ~BufferPool();

  static constexpr size_t kMinFramesPerShard = 4;

  /// Pin an existing page.
  Result<PageGuard> Fetch(PageId pid);

  /// Allocate a fresh page in `file`, pinned and zero-initialized.
  Result<PageGuard> New(FileId file);

  /// Write back all dirty pages (used by tests and shutdown).
  Status FlushAll();

  /// Drop every cached page of `file` (after file deletion). Pages of the
  /// file must be unpinned.
  void Purge(FileId file);

  BufferPoolStats stats() const;

  /// Publish pool telemetry into `registry` (`buffer_pool.*` aggregates
  /// plus `buffer_pool.shard<i>.*` per-shard counters); call before
  /// concurrent use. Null detaches.
  void AttachMetrics(metrics::MetricsRegistry* registry);

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }
  /// Which shard `pid` maps to (exposed for tests).
  size_t ShardFor(PageId pid) const {
    return PageIdHash{}(pid) % shards_.size();
  }
  std::vector<BufferPoolShardInfo> ShardInfos() const;
  DiskManager* disk() const { return disk_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId pid;
    bool dirty = false;
    bool hot = false;  ///< protected SLRU segment (second reference seen)
    int pin_count = 0;
    bool used = false;
    std::unique_ptr<char[]> data;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Frame> frames;
    std::unordered_map<PageId, size_t, PageIdHash> table;
    std::vector<size_t> free_list;  ///< never-used / purged frame indices
    /// Replacer: unpinned resident frames only; front = most recent.
    std::list<size_t> cold;
    std::list<size_t> hot;
    std::unordered_map<size_t, std::list<size_t>::iterator> pos;
    size_t hot_frames = 0;  ///< resident frames with the hot bit set
    size_t hot_cap = 1;     ///< hot segment limit (3/4 of shard frames)

    // Counters; guarded by `mutex`.
    int64_t logical_reads = 0;
    int64_t physical_reads = 0;
    int64_t evictions = 0;
    int64_t dirty_writebacks = 0;

    metrics::Counter* m_hits = nullptr;
    metrics::Counter* m_misses = nullptr;
    metrics::Counter* m_evictions = nullptr;
  };

  void Unpin(size_t shard_idx, size_t frame_idx);
  void MarkDirty(size_t shard_idx, size_t frame_idx);

  /// Lock a shard, counting contended acquisitions into
  /// `buffer_pool.shard_lock_wait`.
  std::unique_lock<std::mutex> LockShard(const Shard& s) const;

  /// Remove an unpinned frame from whichever replacer list holds it.
  /// Caller holds the shard mutex.
  void Detach(Shard& s, size_t frame_idx);
  /// Move the frame into the protected segment, demoting the hot LRU
  /// tail if the segment overflows. Caller holds the shard mutex.
  void Promote(Shard& s, size_t frame_idx);

  /// Find a frame for a new page: free-list frame, else evict the cold
  /// LRU tail, else the hot LRU tail. Caller holds the shard mutex.
  /// Returns ResourceExhausted naming `pid` and capacities if every
  /// frame is pinned.
  Result<size_t> AcquireFrame(size_t shard_idx, Shard& s, PageId pid);

  DiskManager* disk_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Registry handles (null until AttachMetrics). The shard counters stay
  /// authoritative for BufferPoolStats; these mirror into imp_metrics.
  metrics::Counter* m_hits_ = nullptr;
  metrics::Counter* m_misses_ = nullptr;
  metrics::Counter* m_evictions_ = nullptr;
  metrics::Counter* m_writebacks_ = nullptr;
  metrics::Counter* m_fault_trips_ = nullptr;
  metrics::Counter* m_lock_wait_ = nullptr;
};

}  // namespace imon::storage

#endif  // IMON_STORAGE_BUFFER_POOL_H_
