#include "common/ring_buffer.h"

#include <gtest/gtest.h>

#include <vector>

namespace imon {
namespace {

std::vector<int> Contents(const RingBuffer<int>& ring) {
  std::vector<int> out;
  for (size_t i = 0; i < ring.size(); ++i) out.push_back(ring[i]);
  return out;
}

TEST(RingBufferTest, BasicPushAndWrap) {
  RingBuffer<int> ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  ring.Push(1);
  ring.Push(2);
  EXPECT_FALSE(ring.full());
  ring.Push(3);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(Contents(ring), (std::vector<int>{1, 2, 3}));
  ring.Push(4);
  EXPECT_EQ(Contents(ring), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(ring.overwritten(), 1);
}

TEST(RingBufferTest, ZeroCapacityClampsToOne) {
  RingBuffer<int> ring(0);
  ring.Push(1);
  ring.Push(2);
  EXPECT_EQ(Contents(ring), std::vector<int>{2});
}

TEST(RingBufferTest, SnapshotTailStopsAtFirstOldEntry) {
  RingBuffer<int> ring(5);
  for (int i = 1; i <= 7; ++i) ring.Push(i);  // holds 3..7
  auto tail = ring.SnapshotTail([](int v) { return v > 5; });
  EXPECT_EQ(tail, (std::vector<int>{6, 7}));
  auto all = ring.SnapshotTail([](int) { return true; });
  EXPECT_EQ(all, (std::vector<int>{3, 4, 5, 6, 7}));
  auto none = ring.SnapshotTail([](int) { return false; });
  EXPECT_TRUE(none.empty());
}

TEST(RingBufferTest, ClearEmptiesBuffer) {
  RingBuffer<int> ring(2);
  ring.Push(1);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  ring.Push(9);
  EXPECT_EQ(Contents(ring), std::vector<int>{9});
}

TEST(RingBufferTest, BackIsTheNewestEntryAndWritable) {
  RingBuffer<int> ring(3);
  ring.Push(1);
  EXPECT_EQ(ring.back(), 1);
  ring.Push(2);
  ring.back() += 20;
  EXPECT_EQ(Contents(ring), (std::vector<int>{1, 22}));
  for (int v = 3; v <= 7; ++v) {
    ring.Push(v);
    EXPECT_EQ(ring.back(), v);  // across every wrap position
  }
  ring.back() = 70;
  EXPECT_EQ(Contents(ring), (std::vector<int>{5, 6, 70}));
}

}  // namespace
}  // namespace imon
