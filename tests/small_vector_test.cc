#include "common/small_vector.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace qsteer {
namespace {

using Vec = SmallVector<int, 2>;

std::vector<int> Contents(const Vec& v) { return std::vector<int>(v.begin(), v.end()); }

TEST(SmallVector, GrowsFromInlineToHeapStorage) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 2u);
  v.push_back(1);
  v.push_back(2);
  const int* inline_data = v.data();
  EXPECT_EQ(v.capacity(), 2u);
  v.push_back(3);
  EXPECT_NE(v.data(), inline_data);
  EXPECT_GE(v.capacity(), 3u);
  for (int i = 4; i <= 20; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(v[static_cast<size_t>(i)], i + 1);
  EXPECT_EQ(v.back(), 20);
}

TEST(SmallVector, CopyAndMoveInlineState) {
  Vec a = {7, 8};
  Vec copy(a);
  EXPECT_EQ(Contents(copy), (std::vector<int>{7, 8}));
  Vec assigned;
  assigned = a;
  EXPECT_EQ(Contents(assigned), (std::vector<int>{7, 8}));

  Vec moved(std::move(a));
  EXPECT_EQ(Contents(moved), (std::vector<int>{7, 8}));
  EXPECT_TRUE(a.empty());  // a moved-from vector is empty
  Vec move_assigned = {1, 2, 3};  // starts on the heap
  move_assigned = std::move(moved);
  EXPECT_EQ(Contents(move_assigned), (std::vector<int>{7, 8}));
  EXPECT_EQ(move_assigned.capacity(), 2u);
}

TEST(SmallVector, CopyAndMoveHeapState) {
  Vec a = {1, 2, 3, 4, 5};
  Vec copy(a);
  EXPECT_EQ(Contents(copy), Contents(a));
  EXPECT_NE(copy.data(), a.data());  // a deep copy, not a shared buffer
  copy[0] = 9;
  EXPECT_EQ(a[0], 1);

  Vec assigned = {6};
  assigned = a;
  EXPECT_EQ(Contents(assigned), Contents(a));

  const int* buffer = a.data();
  Vec moved(std::move(a));
  EXPECT_EQ(moved.data(), buffer);  // the heap buffer is stolen
  EXPECT_EQ(Contents(moved), (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(a.empty());  // a moved-from vector is empty
  EXPECT_EQ(a.capacity(), 2u);

  Vec move_assigned = {0};
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.data(), buffer);
  EXPECT_EQ(Contents(move_assigned), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SmallVector, Equality) {
  EXPECT_EQ(Vec({1, 2}), Vec({1, 2}));
  EXPECT_NE(Vec({1, 2}), Vec({2, 1}));
  EXPECT_NE(Vec({1, 2}), Vec({1, 2, 3}));
  EXPECT_EQ(Vec({1, 2, 3}), Vec(std::vector<int>{1, 2, 3}));  // heap vs heap
  Vec grown = {1, 2, 3};
  grown.clear();
  grown.push_back(4);
  EXPECT_EQ(grown, Vec({4}));  // heap vs inline storage compare by value
  EXPECT_EQ(Vec(), Vec(std::vector<int>{}));
}

TEST(SmallVector, PushBackOfOwnElementWhileGrowing) {
  // Full and on the heap: push_back grows and frees the old buffer, so it
  // must copy the argument before growing.
  Vec v = {10, 20, 30, 40};
  ASSERT_EQ(v.size(), v.capacity());
  v.push_back(v[0]);
  EXPECT_EQ(Contents(v), (std::vector<int>{10, 20, 30, 40, 10}));

  // Full in inline storage: the first growth.
  Vec inline_full = {5, 6};
  inline_full.push_back(inline_full.back());
  EXPECT_EQ(Contents(inline_full), (std::vector<int>{5, 6, 6}));
}

}  // namespace
}  // namespace qsteer
