// FIFO queue in fixed-size chunks whose storage is recycled: push at the
// back, pop at the front. It replaces std::deque on per-packet paths (the
// sender queue, the reorder window's arrival FIFO). A deque frees a
// 512-byte chunk each time its front leaves one and allocates a new one
// each time its back fills one, so a backlog that moves costs an
// allocation every few packets.
//
// Here a chunk holds about 4 KB of elements. A chunk the front leaves is
// kept as a spare, up to kMaxSpare of them, and the back takes its next
// chunk from the spares before it allocates one. A backlog that moves
// without growing by more than the spares costs no heap traffic, and
// memory follows the backlog within kMaxSpare chunks, as a deque's does.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace rpv::sim {

template <class T>
class Fifo {
 public:
  static constexpr std::size_t kChunk =
      std::max<std::size_t>(4096 / sizeof(T), 16);
  static constexpr std::size_t kMaxSpare = 4;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  // Chunks held, in use or spare.
  [[nodiscard]] std::size_t chunks() const {
    return chunks_.size() + spare_.size();
  }

  // Requires !empty().
  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return chunks_.front()[head_];
  }

  void push_back(T value) {
    const std::size_t k = head_ + size_;
    if (k / kChunk == chunks_.size()) {
      if (spare_.empty()) {
        chunks_.push_back(std::make_unique<T[]>(kChunk));
      } else {
        chunks_.push_back(std::move(spare_.back()));
        spare_.pop_back();
      }
    }
    chunks_[k / kChunk][k % kChunk] = std::move(value);
    ++size_;
  }

  // Requires !empty().
  void pop_front() {
    assert(size_ > 0);
    ++head_;
    if (--size_ == 0) {
      clear();
    } else if (head_ == kChunk) {
      head_ = 0;
      retire(0);
    }
  }

  // Empties the queue, keeping one chunk in place for the next push.
  void clear() {
    size_ = 0;
    head_ = 0;
    while (chunks_.size() > 1) retire(chunks_.size() - 1);
  }

 private:
  void retire(std::size_t i) {
    if (spare_.size() < kMaxSpare) spare_.push_back(std::move(chunks_[i]));
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  std::vector<std::unique_ptr<T[]>> chunks_;  // in use, front chunk first
  std::vector<std::unique_ptr<T[]>> spare_;
  std::size_t head_ = 0;  // index of the front element in chunks_[0]
  std::size_t size_ = 0;
};

}  // namespace rpv::sim
