// sim::Fifo and sim::FlatSet against the std::deque and std::unordered_set
// they replace on the per-packet paths, on seeded random operation streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "sim/flat_set.hpp"
#include "sim/fifo.hpp"
#include "sim/rng.hpp"

namespace rpv::sim {
namespace {

TEST(Fifo, MatchesDeque) {
  Rng rng{21};
  Fifo<std::int64_t> fifo;
  std::deque<std::int64_t> ref;
  for (int step = 0; step < 300'000; ++step) {
    const auto op = rng.uniform_int(0, 999);
    // Alternate long backlogs with short ones so chunks are retired, kept
    // as spares and freed.
    const bool deep = (step / 30'000) % 2 == 0;
    if (op < (deep ? 550 : 480)) {
      fifo.push_back(step);
      ref.push_back(step);
    } else if (op < 999) {
      if (!ref.empty()) {
        ASSERT_EQ(fifo.front(), ref.front());
        fifo.pop_front();
        ref.pop_front();
      }
    } else {
      fifo.clear();
      ref.clear();
    }
    ASSERT_EQ(fifo.size(), ref.size());
    ASSERT_LE(fifo.chunks(),
              ref.size() / Fifo<std::int64_t>::kChunk + 2 +
                  Fifo<std::int64_t>::kMaxSpare);
  }
}

TEST(Fifo, MemoryFollowsTheBacklog) {
  using F = Fifo<int>;
  F fifo;
  for (std::size_t i = 0; i < 100 * F::kChunk; ++i) fifo.push_back(1);
  EXPECT_EQ(fifo.chunks(), 100u);
  // Half the backlog leaves: the spares stop at kMaxSpare, the rest is freed.
  for (std::size_t i = 0; i < 50 * F::kChunk; ++i) fifo.pop_front();
  EXPECT_EQ(fifo.chunks(), 50u + F::kMaxSpare);
  fifo.clear();
  EXPECT_EQ(fifo.chunks(), 1u + F::kMaxSpare);
}

TEST(FlatSet, MatchesUnorderedSet) {
  Rng rng{23};
  FlatSet set;
  std::unordered_set<std::uint64_t> ref;
  for (int step = 0; step < 300'000; ++step) {
    const auto op = rng.uniform_int(0, 999);
    if (op < 990) {
      // Clustered keys, as transport seqs and frame ids give.
      const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 20'000))
                       << (op % 2 == 0 ? 16 : 0);
      ASSERT_EQ(set.insert(key), ref.insert(key).second);
    } else if (op < 999) {
      const auto cut = static_cast<std::uint64_t>(rng.uniform_int(0, 20'000));
      set.erase_if([cut](std::uint64_t k) { return k % 20'011 < cut % 997; });
      std::erase_if(ref, [cut](std::uint64_t k) { return k % 20'011 < cut % 997; });
      // Every survivor is still found.
      for (const std::uint64_t k : ref) ASSERT_FALSE(set.insert(k)) << k;
    } else {
      set.clear();
      ref.clear();
    }
    ASSERT_EQ(set.size(), ref.size());
  }
}

// Small tables, where probe chains wrap past the last slot and clusters
// are long relative to the table: erase_if must leave every survivor
// reachable whichever slot its chain starts from.
TEST(FlatSet, EraseIfKeepsSurvivorsReachableInSmallTables) {
  Rng rng{29};
  for (int round = 0; round < 20'000; ++round) {
    FlatSet set;
    std::unordered_set<std::uint64_t> ref;
    const auto n = rng.uniform_int(1, 31);  // stays in the first 64 slots
    for (std::int64_t i = 0; i < n; ++i) {
      const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000));
      set.insert(key);
      ref.insert(key);
    }
    const auto cut = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000));
    set.erase_if([cut](std::uint64_t k) { return k < cut; });
    std::erase_if(ref, [cut](std::uint64_t k) { return k < cut; });
    ASSERT_EQ(set.size(), ref.size());
    for (const std::uint64_t k : ref) ASSERT_FALSE(set.insert(k)) << k;
  }
}

}  // namespace
}  // namespace rpv::sim
