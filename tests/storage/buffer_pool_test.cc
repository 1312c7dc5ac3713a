#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace imon::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(), pool_(&disk_, 4) { file_ = disk_.CreateFile(); }
  DiskManager disk_;
  BufferPool pool_;
  FileId file_;
};

TEST_F(BufferPoolTest, NewPageIsZeroedAndPinned) {
  auto guard = pool_.New(file_);
  ASSERT_TRUE(guard.ok());
  PageView view = guard->Read();
  EXPECT_EQ(view.type(), PageType::kFree);
  EXPECT_EQ(disk_.NumPages(file_), 1u);
}

TEST_F(BufferPoolTest, WriteSurvivesEviction) {
  PageId pid;
  {
    auto guard = pool_.New(file_);
    ASSERT_TRUE(guard.ok());
    pid = guard->page_id();
    PageView view = guard->Write();
    view.Init(PageType::kHeap);
    view.Insert("persistent");
  }
  // Evict by filling the pool with other pages.
  for (int i = 0; i < 8; ++i) {
    auto g = pool_.New(file_);
    ASSERT_TRUE(g.ok());
  }
  auto back = pool_.Fetch(pid);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Read().Get(0), "persistent");
}

TEST_F(BufferPoolTest, FetchMissesThenHits) {
  PageId pid;
  {
    auto g = pool_.New(file_);
    pid = g->page_id();
  }
  auto before = pool_.stats();
  {
    auto g = pool_.Fetch(pid);  // hit: still resident
    ASSERT_TRUE(g.ok());
  }
  auto after = pool_.stats();
  EXPECT_EQ(after.logical_reads, before.logical_reads + 1);
  EXPECT_EQ(after.physical_reads, before.physical_reads);
}

TEST_F(BufferPoolTest, AllPinnedIsResourceExhausted) {
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < pool_.capacity(); ++i) {
    auto g = pool_.New(file_);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(g.TakeValue()));
  }
  auto overflow = pool_.New(file_);
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  guards.clear();
  EXPECT_TRUE(pool_.New(file_).ok());
}

TEST_F(BufferPoolTest, LruEvictsColdestPage) {
  std::vector<PageId> pids;
  for (int i = 0; i < 4; ++i) {
    auto g = pool_.New(file_);
    pids.push_back(g->page_id());
  }
  // Touch pages 1..3 so page 0 is coldest.
  for (int i = 1; i < 4; ++i) {
    auto g = pool_.Fetch(pids[i]);
    ASSERT_TRUE(g.ok());
  }
  auto before = pool_.stats();
  {
    auto g = pool_.New(file_);  // forces one eviction
    ASSERT_TRUE(g.ok());
  }
  auto mid = pool_.stats();
  EXPECT_EQ(mid.evictions, before.evictions + 1);
  // Page 0 must now be a physical read again; page 3 still resident.
  {
    auto g = pool_.Fetch(pids[3]);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool_.stats().physical_reads, mid.physical_reads);
  {
    auto g = pool_.Fetch(pids[0]);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool_.stats().physical_reads, mid.physical_reads + 1);
}

TEST_F(BufferPoolTest, FetchUnknownPageFails) {
  EXPECT_FALSE(pool_.Fetch(PageId{file_, 42}).ok());
  EXPECT_FALSE(pool_.Fetch(PageId{9999, 0}).ok());
}

TEST_F(BufferPoolTest, FlushAllWritesDirtyPages) {
  PageId pid;
  {
    auto g = pool_.New(file_);
    pid = g->page_id();
    g->Write().Init(PageType::kHeap);
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  char raw[kPageSize];
  ASSERT_TRUE(disk_.ReadPage(pid, raw).ok());
  EXPECT_EQ(PageView(raw).type(), PageType::kHeap);
}

TEST_F(BufferPoolTest, PurgeDropsCachedPagesOfFile) {
  auto g = pool_.New(file_);
  PageId pid = g->page_id();
  g->Release();
  pool_.Purge(file_);
  auto before = pool_.stats();
  auto again = pool_.Fetch(pid);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool_.stats().physical_reads, before.physical_reads + 1);
}

TEST_F(BufferPoolTest, AllPinnedErrorNamesPageShardAndCapacity) {
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < pool_.capacity(); ++i) {
    auto g = pool_.New(file_);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(g.TakeValue()));
  }
  auto overflow = pool_.New(file_);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  std::string msg(overflow.status().message());
  // The message must name the page that could not be pinned, the shard
  // whose frames were exhausted, and the overall pool geometry.
  EXPECT_NE(msg.find("cannot pin page"), std::string::npos) << msg;
  EXPECT_NE(msg.find(std::to_string(file_) + ":4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("shard"), std::string::npos) << msg;
  EXPECT_NE(msg.find("pool capacity 4"), std::string::npos) << msg;
}

TEST_F(BufferPoolTest, LongScanDoesNotEvictRepeatedlyHitPages) {
  // Warm three pages into the protected (hot) segment: a page becomes hot
  // on its second reference.
  std::vector<PageId> hot;
  for (int i = 0; i < 3; ++i) {
    auto g = pool_.New(file_);
    ASSERT_TRUE(g.ok());
    hot.push_back(g->page_id());
  }
  for (const PageId& pid : hot) ASSERT_TRUE(pool_.Fetch(pid).ok());

  // A long sequential scan of one-touch pages must recycle only the
  // probationary frame, never the hot set.
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(pool_.New(file_).ok());

  auto before = pool_.stats();
  for (const PageId& pid : hot) ASSERT_TRUE(pool_.Fetch(pid).ok());
  auto after = pool_.stats();
  EXPECT_EQ(after.physical_reads, before.physical_reads)
      << "scan evicted pages with recent repeated hits";
}

TEST(BufferPoolShardingTest, UniformWorkloadBalancesShards) {
  DiskManager disk;
  BufferPool pool(&disk, 512, 8);
  FileId f = disk.CreateFile();
  ASSERT_EQ(pool.shard_count(), 8u);

  constexpr int kPages = 400;
  for (int i = 0; i < kPages; ++i) ASSERT_TRUE(pool.New(f).ok());

  auto infos = pool.ShardInfos();
  ASSERT_EQ(infos.size(), 8u);
  size_t resident = 0;
  size_t capacity = 0;
  for (const auto& info : infos) {
    resident += info.resident_pages;
    capacity += info.capacity;
  }
  EXPECT_EQ(resident, static_cast<size_t>(kPages));
  EXPECT_EQ(capacity, 512u);
  const double mean = static_cast<double>(kPages) / 8.0;
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_LE(static_cast<double>(infos[i].resident_pages), 2.0 * mean)
        << "shard " << i << " holds " << infos[i].resident_pages
        << " pages, more than 2x the mean of " << mean;
  }
}

TEST(BufferPoolShardingTest, ExhaustingOneShardLeavesOthersUsable) {
  DiskManager disk;
  BufferPool pool(&disk, 16, 4);  // 4 frames per shard
  FileId f = disk.CreateFile();

  // Collect 5 pages that hash to shard 0 and one page from another shard.
  std::vector<PageId> shard0;
  PageId other{};
  bool have_other = false;
  while (shard0.size() < 5 || !have_other) {
    auto g = pool.New(f);
    ASSERT_TRUE(g.ok());
    PageId pid = g->page_id();
    if (pool.ShardFor(pid) == 0) {
      if (shard0.size() < 5) shard0.push_back(pid);
    } else if (!have_other) {
      other = pid;
      have_other = true;
    }
  }

  std::vector<PageGuard> pins;
  for (size_t i = 0; i < 4; ++i) {
    auto g = pool.Fetch(shard0[i]);
    ASSERT_TRUE(g.ok());
    pins.push_back(std::move(g.TakeValue()));
  }
  auto overflow = pool.Fetch(shard0[4]);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(std::string(overflow.status().message()).find("shard 0"),
            std::string::npos);
  // Other shards are unaffected by shard 0 being fully pinned.
  EXPECT_TRUE(pool.Fetch(other).ok());
  pins.clear();
  EXPECT_TRUE(pool.Fetch(shard0[4]).ok());
}

TEST(BufferPoolShardingTest, SmallPoolsKeepMinFramesPerShard) {
  DiskManager disk;
  EXPECT_EQ(BufferPool(&disk, 8, 8).shard_count(), 2u);
  EXPECT_EQ(BufferPool(&disk, 7, 8).shard_count(), 1u);
  EXPECT_EQ(BufferPool(&disk, 2, 8).shard_count(), 1u);
  EXPECT_EQ(BufferPool(&disk, 9, 0).shard_count(), 1u);

  // An 8-page pool asked for 8 shards can still pin two pages of one
  // shard at once (with one-frame shards the second pin would fail).
  BufferPool pool(&disk, 8, 8);
  for (const BufferPoolShardInfo& info : pool.ShardInfos()) {
    EXPECT_GE(info.capacity, BufferPool::kMinFramesPerShard);
  }
  FileId f = disk.CreateFile();
  std::vector<PageGuard> shard0_pins;
  while (shard0_pins.size() < 2) {
    auto g = pool.New(f);
    ASSERT_TRUE(g.ok()) << g.status().message();
    if (pool.ShardFor(g->page_id()) == 0) {
      shard0_pins.push_back(std::move(g.TakeValue()));
    }
  }
  EXPECT_NE(shard0_pins[0].page_id(), shard0_pins[1].page_id());
}

TEST(BufferPoolShardingTest, ConcurrentPinnersExhaustShardGracefully) {
  DiskManager disk;
  BufferPool pool(&disk, 16, 4);  // 4 frames per shard
  FileId f = disk.CreateFile();

  std::vector<PageId> shard0;
  while (shard0.size() < 6) {
    auto g = pool.New(f);
    ASSERT_TRUE(g.ok());
    if (pool.ShardFor(g->page_id()) == 0) shard0.push_back(g->page_id());
  }

  // Each thread repeatedly pins all six shard-0 pages at once. At most four
  // distinct pages fit in the shard, so every iteration must see graceful
  // ResourceExhausted failures rather than crashes or deadlocks.
  std::atomic<int> failures{0};
  std::atomic<bool> wrong_code{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 25; ++iter) {
        std::vector<PageGuard> pins;
        for (const PageId& pid : shard0) {
          auto g = pool.Fetch(pid);
          if (g.ok()) {
            pins.push_back(std::move(g.TakeValue()));
          } else {
            if (g.status().code() != StatusCode::kResourceExhausted) {
              wrong_code.store(true);
            }
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(failures.load(), 0);
  EXPECT_FALSE(wrong_code.load());
  // All pins released: the shard is usable again.
  EXPECT_TRUE(pool.Fetch(shard0[0]).ok());
}

TEST(DiskManagerTest, CountsPhysicalIo) {
  DiskManager disk;
  FileId f = disk.CreateFile();
  auto page_no = disk.AllocatePage(f);
  ASSERT_TRUE(page_no.ok());
  char buf[kPageSize];
  std::memset(buf, 0xAB, kPageSize);
  ASSERT_TRUE(disk.WritePage(PageId{f, *page_no}, buf).ok());
  char out[kPageSize];
  ASSERT_TRUE(disk.ReadPage(PageId{f, *page_no}, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
  auto stats = disk.stats();
  EXPECT_EQ(stats.physical_reads, 1);
  EXPECT_EQ(stats.physical_writes, 1);
  EXPECT_EQ(stats.pages_allocated, 1);
}

TEST(DiskManagerTest, DeleteFileInvalidatesPages) {
  DiskManager disk;
  FileId f = disk.CreateFile();
  auto p = disk.AllocatePage(f);
  ASSERT_TRUE(p.ok());
  disk.DeleteFile(f);
  char buf[kPageSize];
  EXPECT_FALSE(disk.ReadPage(PageId{f, *p}, buf).ok());
  EXPECT_EQ(disk.NumPages(f), 0u);
}

TEST(DiskManagerTest, TotalPagesAcrossFiles) {
  DiskManager disk;
  FileId a = disk.CreateFile();
  FileId b = disk.CreateFile();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(disk.AllocatePage(a).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(disk.AllocatePage(b).ok());
  EXPECT_EQ(disk.TotalPages(), 5);
  EXPECT_EQ(disk.TotalPagesIn({a}), 3);
  EXPECT_EQ(disk.TotalPagesIn({a, b}), 5);
}

TEST(DiskManagerTest, SimulatedLatencySlowsIo) {
  DiskManager disk(200000);  // 200us per access
  FileId f = disk.CreateFile();
  auto p = disk.AllocatePage(f);
  char buf[kPageSize];
  int64_t start = MonotonicNanos();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(disk.ReadPage(PageId{f, *p}, buf).ok());
  int64_t elapsed = MonotonicNanos() - start;
  EXPECT_GE(elapsed, 5 * 200000);
}

}  // namespace
}  // namespace imon::storage
