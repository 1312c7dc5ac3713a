#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace imon::storage {

PageView PageGuard::Write() {
  pool_->MarkDirty(shard_, frame_);
  return PageView(data_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(shard_, frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity_pages, size_t shards)
    : disk_(disk), capacity_(capacity_pages) {
  if (capacity_ == 0) capacity_ = 1;
  if (shards == 0) shards = 1;
  // At least kMinFramesPerShard frames per shard: a one-frame shard fails
  // any operation that pins two of its pages at once.
  shards = std::min(shards,
                    std::max<size_t>(1, capacity_ / kMinFramesPerShard));
  shards_.reserve(shards);
  size_t base = capacity_ / shards;
  size_t extra = capacity_ % shards;
  for (size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    size_t n = base + (i < extra ? 1 : 0);
    shard->frames.resize(n);
    shard->free_list.reserve(n);
    for (size_t idx = n; idx-- > 0;) {
      shard->frames[idx].data = std::make_unique<char[]>(kPageSize);
      shard->free_list.push_back(idx);
    }
    // Protected segment capped at 3/4 of the shard so a working set can
    // never squeeze out the probationary segment entirely.
    shard->hot_cap = n > 1 ? (n * 3) / 4 : 1;
    if (shard->hot_cap == 0) shard->hot_cap = 1;
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() { FlushAll().ok(); }

void BufferPool::AttachMetrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_hits_ = m_misses_ = m_evictions_ = m_writebacks_ = m_fault_trips_ =
        m_lock_wait_ = nullptr;
    for (auto& s : shards_) s->m_hits = s->m_misses = s->m_evictions = nullptr;
    return;
  }
  m_hits_ = registry->GetCounter("buffer_pool.hits");
  m_misses_ = registry->GetCounter("buffer_pool.misses");
  m_evictions_ = registry->GetCounter("buffer_pool.evictions");
  m_writebacks_ = registry->GetCounter("buffer_pool.writebacks");
  m_fault_trips_ = registry->GetCounter("buffer_pool.fault_trips");
  m_lock_wait_ = registry->GetCounter("buffer_pool.shard_lock_wait");
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string prefix = "buffer_pool.shard" + std::to_string(i);
    shards_[i]->m_hits = registry->GetCounter(prefix + ".hits");
    shards_[i]->m_misses = registry->GetCounter(prefix + ".misses");
    shards_[i]->m_evictions = registry->GetCounter(prefix + ".evictions");
  }
}

std::unique_lock<std::mutex> BufferPool::LockShard(const Shard& s) const {
  std::unique_lock<std::mutex> lock(s.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    if (m_lock_wait_ != nullptr) m_lock_wait_->Add();
    lock.lock();
  }
  return lock;
}

void BufferPool::Detach(Shard& s, size_t frame_idx) {
  auto pos = s.pos.find(frame_idx);
  if (pos == s.pos.end()) return;
  if (s.frames[frame_idx].hot) {
    s.hot.erase(pos->second);
  } else {
    s.cold.erase(pos->second);
  }
  s.pos.erase(pos);
}

void BufferPool::Promote(Shard& s, size_t frame_idx) {
  Frame& f = s.frames[frame_idx];
  if (f.hot) return;
  f.hot = true;
  ++s.hot_frames;
  // Demote the protected tail (LRU hot, necessarily unpinned since it is
  // on the list) back to probation when the segment overflows.
  while (s.hot_frames > s.hot_cap && !s.hot.empty()) {
    size_t victim = s.hot.back();
    s.hot.pop_back();
    s.frames[victim].hot = false;
    --s.hot_frames;
    s.cold.push_front(victim);
    s.pos[victim] = s.cold.begin();
  }
}

Result<PageGuard> BufferPool::Fetch(PageId pid) {
  size_t shard_idx = ShardFor(pid);
  Shard& s = *shards_[shard_idx];
  auto lock = LockShard(s);
  ++s.logical_reads;
  auto it = s.table.find(pid);
  if (it != s.table.end()) {
    size_t idx = it->second;
    Frame& f = s.frames[idx];
    if (f.pin_count == 0) Detach(s, idx);
    // Second reference: the page has proven itself beyond a one-touch
    // scan, so it graduates into the protected segment.
    Promote(s, idx);
    ++f.pin_count;
    if (m_hits_ != nullptr) m_hits_->Add();
    if (s.m_hits != nullptr) s.m_hits->Add();
    return PageGuard(this, shard_idx, idx, f.data.get(), pid);
  }
  IMON_ASSIGN_OR_RETURN(size_t idx, AcquireFrame(shard_idx, s, pid));
  Frame& f = s.frames[idx];
  f.pid = pid;
  f.dirty = false;
  f.hot = false;  // probationary until a second reference
  f.pin_count = 1;
  f.used = true;
  s.table[pid] = idx;
  // Read outside the shard lock would be nicer; the in-memory disk makes
  // the hold time trivial, so keep it simple and race-free.
  ++s.physical_reads;
  if (m_misses_ != nullptr) m_misses_->Add();
  if (s.m_misses != nullptr) s.m_misses->Add();
  Status st = disk_->ReadPage(pid, f.data.get());
  if (!st.ok()) {
    if (m_fault_trips_ != nullptr) m_fault_trips_->Add();
    s.table.erase(pid);
    f.pin_count = 0;
    f.used = false;
    s.free_list.push_back(idx);
    return st;
  }
  return PageGuard(this, shard_idx, idx, f.data.get(), pid);
}

Result<PageGuard> BufferPool::New(FileId file) {
  IMON_ASSIGN_OR_RETURN(uint32_t page_no, disk_->AllocatePage(file));
  PageId pid{file, page_no};
  size_t shard_idx = ShardFor(pid);
  Shard& s = *shards_[shard_idx];
  auto lock = LockShard(s);
  ++s.logical_reads;
  IMON_ASSIGN_OR_RETURN(size_t idx, AcquireFrame(shard_idx, s, pid));
  Frame& f = s.frames[idx];
  f.pid = pid;
  f.dirty = true;  // fresh page must reach the disk image eventually
  f.hot = false;
  f.pin_count = 1;
  f.used = true;
  std::memset(f.data.get(), 0, kPageSize);
  s.table[pid] = idx;
  return PageGuard(this, shard_idx, idx, f.data.get(), pid);
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    auto lock = LockShard(*shard);
    for (Frame& f : shard->frames) {
      if (f.used && f.dirty) {
        Status s = disk_->WritePage(f.pid, f.data.get());
        if (!s.ok()) {
          if (m_fault_trips_ != nullptr) m_fault_trips_->Add();
          return s;
        }
        ++shard->dirty_writebacks;
        if (m_writebacks_ != nullptr) m_writebacks_->Add();
        f.dirty = false;
      }
    }
  }
  return Status::OK();
}

void BufferPool::Purge(FileId file) {
  for (auto& shard : shards_) {
    auto lock = LockShard(*shard);
    for (size_t idx = 0; idx < shard->frames.size(); ++idx) {
      Frame& f = shard->frames[idx];
      if (f.used && f.pid.file_id == file && f.pin_count == 0) {
        shard->table.erase(f.pid);
        Detach(*shard, idx);
        if (f.hot) {
          f.hot = false;
          --shard->hot_frames;
        }
        f.used = false;
        f.dirty = false;
        shard->free_list.push_back(idx);
      }
    }
  }
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  for (const auto& shard : shards_) {
    auto lock = LockShard(*shard);
    out.logical_reads += shard->logical_reads;
    out.physical_reads += shard->physical_reads;
    out.evictions += shard->evictions;
    out.dirty_writebacks += shard->dirty_writebacks;
  }
  return out;
}

std::vector<BufferPoolShardInfo> BufferPool::ShardInfos() const {
  std::vector<BufferPoolShardInfo> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    auto lock = LockShard(*shard);
    BufferPoolShardInfo info;
    info.capacity = shard->frames.size();
    for (const Frame& f : shard->frames) {
      if (!f.used) continue;
      ++info.resident_pages;
      if (f.pin_count > 0) ++info.pinned_frames;
      if (f.hot) ++info.hot_frames;
    }
    info.hits = shard->logical_reads - shard->physical_reads;
    info.misses = shard->physical_reads;
    info.evictions = shard->evictions;
    out.push_back(info);
  }
  return out;
}

Result<size_t> BufferPool::AcquireFrame(size_t shard_idx, Shard& s,
                                        PageId pid) {
  if (!s.free_list.empty()) {
    size_t idx = s.free_list.back();
    s.free_list.pop_back();
    return idx;
  }
  // Evict from probation first; the protected segment gives repeatedly
  // referenced pages a second chance against one-touch scan traffic.
  size_t idx;
  if (!s.cold.empty()) {
    idx = s.cold.back();
    s.cold.pop_back();
  } else if (!s.hot.empty()) {
    idx = s.hot.back();
    s.hot.pop_back();
  } else {
    return Status::ResourceExhausted(
        "buffer pool: cannot pin page " + std::to_string(pid.file_id) + ":" +
        std::to_string(pid.page_no) + "; all " +
        std::to_string(s.frames.size()) + " frames of shard " +
        std::to_string(shard_idx) + " are pinned (pool capacity " +
        std::to_string(capacity_) + " pages across " +
        std::to_string(shards_.size()) + " shards)");
  }
  s.pos.erase(idx);
  Frame& f = s.frames[idx];
  if (f.hot) {
    f.hot = false;
    --s.hot_frames;
  }
  if (f.dirty) {
    Status st = disk_->WritePage(f.pid, f.data.get());
    if (!st.ok()) {
      if (m_fault_trips_ != nullptr) m_fault_trips_->Add();
      // The frame keeps its page; re-attach it as the replacer tail so
      // the pool stays consistent after the failed writeback.
      f.hot = false;
      s.cold.push_back(idx);
      auto it = s.cold.end();
      s.pos[idx] = --it;
      return st;
    }
    ++s.dirty_writebacks;
    if (m_writebacks_ != nullptr) m_writebacks_->Add();
  }
  s.table.erase(f.pid);
  f.used = false;
  f.dirty = false;
  ++s.evictions;
  if (m_evictions_ != nullptr) m_evictions_->Add();
  if (s.m_evictions != nullptr) s.m_evictions->Add();
  return idx;
}

void BufferPool::Unpin(size_t shard_idx, size_t frame_idx) {
  Shard& s = *shards_[shard_idx];
  auto lock = LockShard(s);
  Frame& f = s.frames[frame_idx];
  if (--f.pin_count == 0) {
    if (f.hot) {
      s.hot.push_front(frame_idx);
      s.pos[frame_idx] = s.hot.begin();
    } else {
      s.cold.push_front(frame_idx);
      s.pos[frame_idx] = s.cold.begin();
    }
  }
}

void BufferPool::MarkDirty(size_t shard_idx, size_t frame_idx) {
  Shard& s = *shards_[shard_idx];
  auto lock = LockShard(s);
  s.frames[frame_idx].dirty = true;
}

}  // namespace imon::storage
