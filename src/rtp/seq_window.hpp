// Flat map from dense 64-bit keys to values, for key sets that live in a
// bounded span [front, back]: RFC 8888's receive window and SCReAM's
// in-flight packets (unwrapped sequence numbers), the bonded reorder
// window's held packets (unwrapped transport seqs), the FEC group tables
// (group ids) and the player's display queue (frame ids). It replaces a
// std::map on each of those per-packet paths.
//
// Key s lives in slot s & mask, tagged with s, so an empty or stale slot
// never matches a lookup. find, insert and erase are O(1). front() is the
// lowest live key; erasing it walks up to the next live key, so draining in
// key order (pop_front, for_each) costs amortized O(1) per key. The slots
// are allocated on the first insert (a window that never sees a key costs
// no heap) and double whenever a key would widen the live span past them,
// so memory follows the widest span of live keys, not their count. An
// erased slot keeps its value until the slot is reused, so a value that
// owns a buffer (the FEC decoder's seen seqs) keeps its capacity.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace rpv::rtp {

template <class T>
class SeqWindow {
 public:
  // `capacity` slots are allocated on the first insert (rounded up to a
  // power of two); a span at most that wide never reallocates.
  explicit SeqWindow(std::size_t capacity)
      : initial_capacity_{std::bit_ceil(std::max<std::size_t>(capacity, 1))} {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  // Lowest live key. Requires !empty().
  [[nodiscard]] std::int64_t front() const { return lo_; }

  [[nodiscard]] const T* find(std::int64_t s) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[index(s)];
    return slot.seq == s ? &slot.value : nullptr;
  }
  [[nodiscard]] T* find(std::int64_t s) {
    return const_cast<T*>(std::as_const(*this).find(s));
  }

  // Insert if absent (the first value stored for a key wins, like
  // std::map::emplace). Returns whether `value` was stored.
  bool insert(std::int64_t s, const T& value) {
    auto [slot, fresh] = claim(s);
    if (fresh) slot.value = value;
    return fresh;
  }

  // The value for `s`, inserting one equal to T{} if absent (like
  // std::map::operator[]). A reused slot is reset by copy-assignment from
  // T{}, which keeps the capacity of any vector inside it.
  T& operator[](std::int64_t s) {
    static const T kReset{};
    auto [slot, fresh] = claim(s);
    if (fresh) slot.value = kReset;
    return slot.value;
  }

  // Value of the lowest live key. Requires !empty().
  [[nodiscard]] T& front_value() { return slots_[index(lo_)].value; }

  // Remove the lowest live key. Requires !empty().
  void pop_front() { erase(lo_); }

  // Visit every live key in increasing order as fn(key, value). `fn` must
  // not insert or erase.
  template <class Fn>
  void for_each(Fn&& fn) {
    if (size_ == 0) return;
    for (std::int64_t k = lo_; k <= hi_; ++k) {
      Slot& slot = slots_[index(k)];
      if (slot.seq == k) fn(k, slot.value);
    }
  }

  // Remove `s` if present.
  void erase(std::int64_t s) {
    if (size_ == 0) return;
    Slot& slot = slots_[index(s)];
    if (slot.seq != s) return;
    slot.seq = kEmpty;
    if (--size_ > 0 && s == lo_) advance_front();
  }

  // Remove every key below `s`.
  void erase_below(std::int64_t s) {
    if (size_ == 0 || s <= lo_) return;
    const std::int64_t stop = std::min(s, hi_ + 1);
    for (std::int64_t k = lo_; k < stop; ++k) {
      Slot& slot = slots_[index(k)];
      if (slot.seq == k) {
        slot.seq = kEmpty;
        --size_;
      }
    }
    if (size_ == 0) return;
    lo_ = stop;
    advance_front();
  }

 private:
  static constexpr std::int64_t kEmpty = std::numeric_limits<std::int64_t>::min();

  struct Slot {
    std::int64_t seq = kEmpty;
    T value{};
  };

  [[nodiscard]] std::size_t index(std::int64_t s) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(s) & mask_);
  }

  // The slot for `s`, widening the live span to cover it; `fresh` when `s`
  // was absent and is now counted as live.
  std::pair<Slot&, bool> claim(std::int64_t s) {
    if (size_ == 0) {
      if (slots_.empty()) {
        slots_.resize(initial_capacity_);
        mask_ = initial_capacity_ - 1;
      }
      lo_ = hi_ = s;
    } else {
      const std::int64_t lo = std::min(lo_, s);
      const std::int64_t hi = std::max(hi_, s);
      if (static_cast<std::uint64_t>(hi - lo) >= slots_.size()) {
        grow(static_cast<std::uint64_t>(hi - lo) + 1);
      }
      lo_ = lo;
      hi_ = hi;
    }
    Slot& slot = slots_[index(s)];
    if (slot.seq == s) return {slot, false};
    slot.seq = s;
    ++size_;
    return {slot, true};
  }

  // lo_ moves up to the next live key; one exists while size_ > 0.
  void advance_front() {
    while (slots_[index(lo_)].seq != lo_) ++lo_;
  }

  void grow(std::uint64_t span) {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::bit_ceil(static_cast<std::size_t>(span))));
    const std::size_t old_mask = std::exchange(mask_, slots_.size() - 1);
    for (std::int64_t k = lo_; k <= hi_; ++k) {
      Slot& from = old[static_cast<std::size_t>(k) & old_mask];
      if (from.seq == k) slots_[index(k)] = std::move(from);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;  // slots_.size() - 1 once allocated
  std::size_t initial_capacity_;
  std::size_t size_ = 0;
  std::int64_t lo_ = 0;  // every live key is in [lo_, hi_]; lo_ is live
  std::int64_t hi_ = 0;
};

}  // namespace rpv::rtp
