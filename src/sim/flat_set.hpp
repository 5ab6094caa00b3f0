// Open-addressing hash set of 64-bit keys, for the duplicate-suppression
// sets on the bonded receive path (bond::ReorderWindow and the legacy
// first-copy-wins dedup in pipeline::Session). It replaces an
// std::unordered_set, which allocates a node per key.
//
// Linear probing over a power-of-two table that is at most half full, with
// a Fibonacci (multiplicative) hash. The table is allocated on the first
// insert and doubles as the set grows; clear() and erase_if() keep it, so a
// set that is filled and pruned in a cycle stops allocating once it has
// reached its largest size. The all-ones key marks an empty slot and cannot
// be stored.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rpv::sim {

class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }

  // Insert `key` if absent. Returns whether it was inserted.
  bool insert(std::uint64_t key) {
    assert(key != kEmpty);
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
    }
    std::size_t i = home(key);
    for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

  // Remove every key for which `pred(key)` holds, in place.
  template <class Pred>
  void erase_if(Pred pred) {
    if (slots_.empty()) return;
    // Lift every key out and re-seat the survivors, walking from a slot
    // that is already empty: no probe chain crosses it, so the walk meets
    // each cluster front to back and every survivor lands at or before its
    // old slot, never past a hole that a later key still needs.
    std::size_t start = 0;
    while (slots_[start] != kEmpty) ++start;
    for (std::size_t n = 1; n <= slots_.size(); ++n) {
      const std::uint64_t key =
          std::exchange(slots_[(start + n) & mask_], kEmpty);
      if (key == kEmpty) continue;
      if (pred(key)) {
        --size_;
      } else {
        place(key);
      }
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinSlots = 64;

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // Store a key known to be absent.
  void place(std::uint64_t key) {
    std::size_t i = home(key);
    while (slots_[i] != kEmpty) i = (i + 1) & mask_;
    slots_[i] = key;
  }

  void rehash(std::size_t slots) {
    const std::vector<std::uint64_t> old =
        std::exchange(slots_, std::vector<std::uint64_t>(slots, kEmpty));
    mask_ = slots - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (const std::uint64_t key : old) {
      if (key != kEmpty) place(key);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace rpv::sim
