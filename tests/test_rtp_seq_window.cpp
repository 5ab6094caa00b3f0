#include "rtp/seq_window.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace rpv::rtp {
namespace {

TEST(SeqWindow, AllocatesOnFirstInsert) {
  SeqWindow<int> w{100};
  EXPECT_EQ(w.capacity(), 0u);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.find(0), nullptr);
  w.erase(0);
  w.erase_below(10);
  EXPECT_EQ(w.capacity(), 0u);
  EXPECT_TRUE(w.insert(7, 1));
  EXPECT_EQ(w.capacity(), 128u);  // rounded up to a power of two
}

TEST(SeqWindow, FirstInsertWins) {
  SeqWindow<int> w{8};
  EXPECT_TRUE(w.insert(5, 1));
  EXPECT_FALSE(w.insert(5, 2));
  ASSERT_NE(w.find(5), nullptr);
  EXPECT_EQ(*w.find(5), 1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SeqWindow, AliasedSlotDoesNotMatch) {
  SeqWindow<int> w{8};
  w.insert(3, 1);
  EXPECT_EQ(w.find(3 + 8), nullptr);
  EXPECT_EQ(w.find(3 - 8), nullptr);
  EXPECT_EQ(w.find(-5), nullptr);
}

TEST(SeqWindow, FrontWalksPastErasedKeys) {
  SeqWindow<int> w{16};
  for (std::int64_t s = 10; s < 20; ++s) w.insert(s, 0);
  w.erase(11);
  w.erase(12);
  w.erase(10);
  EXPECT_EQ(w.front(), 13);
  w.erase_below(16);
  EXPECT_EQ(w.front(), 16);
  EXPECT_EQ(w.size(), 4u);
  w.erase_below(1000);
  EXPECT_TRUE(w.empty());
  // An emptied window restarts anywhere, even far below its old span.
  w.insert(-40, 9);
  EXPECT_EQ(w.front(), -40);
  EXPECT_EQ(*w.find(-40), 9);
}

TEST(SeqWindow, GrowsToHoldAWideSpan) {
  SeqWindow<int> w{4};
  w.insert(100, 1);
  w.insert(90, 2);   // below the front
  w.insert(130, 3);  // span 41: two doublings
  EXPECT_GE(w.capacity(), 41u);
  EXPECT_EQ(w.front(), 90);
  EXPECT_EQ(*w.find(90), 2);
  EXPECT_EQ(*w.find(100), 1);
  EXPECT_EQ(*w.find(130), 3);
  EXPECT_EQ(w.size(), 3u);
}

// Random inserts, operator[] writes, erases, erase_below and pop_front calls
// against std::map, including negative keys and spans that force growth;
// now and then the whole window is walked in order.
TEST(SeqWindow, MatchesStdMap) {
  sim::Rng rng{17};
  SeqWindow<std::int64_t> w{2};
  std::map<std::int64_t, std::int64_t> ref;
  std::int64_t base = -300;
  for (int step = 0; step < 200'000; ++step) {
    const auto op = rng.uniform_int(0, 12);
    const std::int64_t s = base + rng.uniform_int(-20, 200);
    if (op < 5) {
      EXPECT_EQ(w.insert(s, step), ref.emplace(s, step).second);
      if (rng.chance(0.3)) ++base;
    } else if (op < 7) {
      w.erase(s);
      ref.erase(s);
    } else if (op == 7) {
      w.erase_below(s);
      ref.erase(ref.begin(), ref.lower_bound(s));
    } else if (op == 8) {
      w[s] += step;
      ref[s] += step;
    } else if (op == 9 && !ref.empty()) {
      EXPECT_EQ(w.front_value(), ref.begin()->second);
      w.pop_front();
      ref.erase(ref.begin());
    } else if (op == 10 && rng.chance(0.05)) {
      using Walk = std::vector<std::pair<std::int64_t, std::int64_t>>;
      Walk walked;
      w.for_each([&](std::int64_t k, std::int64_t v) { walked.emplace_back(k, v); });
      ASSERT_EQ(walked, Walk(ref.begin(), ref.end()));
    } else {
      ASSERT_EQ(w.find(s) != nullptr, ref.count(s) == 1);
      if (ref.count(s) == 1) {
        EXPECT_EQ(*w.find(s), ref.at(s));
      }
    }
    ASSERT_EQ(w.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(w.front(), ref.begin()->first);
    }
  }
}

// operator[] on a key whose slot an erased key used hands back an empty
// value that keeps the old value's buffer.
TEST(SeqWindow, ReusedSlotResetsButKeepsCapacity) {
  SeqWindow<std::vector<int>> w{4};
  w[1].assign(100, 7);
  const std::size_t cap = w.find(1)->capacity();
  w.pop_front();
  EXPECT_TRUE(w.empty());
  std::vector<int>& v = w[5];  // slot 5 & 3 == 1
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
  v.push_back(3);
  EXPECT_EQ(w[5], std::vector<int>{3});  // present: not reset
}

}  // namespace
}  // namespace rpv::rtp
