#include "common/keyed_window.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace imon {
namespace {

/// The index's home bucket of `key` for a window of `capacity` (the top
/// bits of the Fibonacci multiply).
uint64_t HomeOf(uint64_t key, size_t capacity) {
  int bits = 0;
  while ((size_t{1} << bits) < 2 * capacity) ++bits;
  return (key * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
}

TEST(KeyedWindowTest, CollidingKeysSurviveEviction) {
  // Keys whose home is one of the index's last two or first bucket (32
  // buckets for a window of 16): long probe runs that wrap around the
  // end, so eviction's backward shift is exercised; checked against a
  // map.
  KeyedWindow<int64_t> window(16);
  std::mt19937_64 rng(11);
  std::vector<uint64_t> pool;
  while (pool.size() < 48) {
    uint64_t key = rng();
    uint64_t home = HomeOf(key, 16);
    if (home == 0 || home >= 30) pool.push_back(key);
  }
  std::unordered_map<uint64_t, int64_t> model;
  std::deque<uint64_t> arrivals;
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = pool[rng() % pool.size()];
    if (int64_t* row = window.Find(key)) {
      ASSERT_TRUE(model.count(key)) << i;
      *row += 1;
      model[key] += 1;
      continue;
    }
    ASSERT_FALSE(model.count(key)) << i;
    if (arrivals.size() == 16) {
      model.erase(arrivals.front());
      arrivals.pop_front();
    }
    arrivals.push_back(key);
    model[key] = 1;
    window.Insert(key) = 1;
    ASSERT_EQ(window.slots().size(), model.size());
    for (const auto& [k, freq] : model) {
      int64_t* found = window.Find(k);
      ASSERT_NE(found, nullptr) << i;
      EXPECT_EQ(*found, freq);
    }
    for (const auto& [k, freq] : window.slots()) {
      EXPECT_EQ(model.at(k), freq);
    }
  }
  window.Clear();
  EXPECT_TRUE(window.slots().empty());
  EXPECT_EQ(window.Find(arrivals.back()), nullptr);
}

TEST(KeyedWindowTest, InsertAtCapacityHandsBackTheEvictedRow) {
  struct Row {
    std::string text;
    int64_t count = 0;
  };
  // Four keys sharing one home bucket form one probe chain; the oldest
  // sits at its head, so evicting it shifts the other three back.
  constexpr size_t kCapacity = 4;
  std::vector<uint64_t> chain;
  uint64_t other = 0;
  for (uint64_t key = 1; chain.size() < kCapacity || other == 0; ++key) {
    if (HomeOf(key, kCapacity) == 3) {
      if (chain.size() < kCapacity) chain.push_back(key);
    } else if (other == 0) {
      other = key;
    }
  }
  KeyedWindow<Row> window(kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    Row& row = window.Insert(chain[i]);
    EXPECT_TRUE(row.text.empty());
    row.text = "row " + std::to_string(i);
    row.count = static_cast<int64_t>(i) + 10;
  }
  Row& recycled = window.Insert(other);
  EXPECT_EQ(recycled.text, "row 0");
  EXPECT_EQ(recycled.count, 10);
  recycled.text = "other";
  recycled.count = 99;

  EXPECT_EQ(window.Find(chain[0]), nullptr);
  for (size_t i = 1; i < kCapacity; ++i) {
    Row* row = window.Find(chain[i]);
    ASSERT_NE(row, nullptr) << i;
    EXPECT_EQ(row->text, "row " + std::to_string(i));
  }
  ASSERT_NE(window.Find(other), nullptr);
  EXPECT_EQ(window.Find(other)->count, 99);
  EXPECT_EQ(window.slots().size(), kCapacity);
}

TEST(KeyedWindowTest, ZeroCapacityClampsToOne) {
  KeyedWindow<int> window(0);
  window.Insert(1) = 10;
  EXPECT_EQ(window.Insert(2), 10);  // the evicted row
  EXPECT_EQ(window.Find(1), nullptr);
  EXPECT_NE(window.Find(2), nullptr);
}

}  // namespace
}  // namespace imon
