#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

namespace acx {

// The typed outcome of a push against the queue's shutdown seam: a
// producer blocked on a full queue is woken by close() and told the
// service is stopping (kClosed) instead of hanging or silently losing
// its element — the contract tests/test_util.cpp pins under TSan.
enum class QueuePushResult {
  kAccepted,  // the element is in the queue
  kClosed,    // the queue closed first; the element was NOT admitted
};

// Bounded blocking priority queue — the event engine's admission seam.
// push() blocks while the queue is at capacity (backpressure: the
// producer cannot run ahead of the workers by more than `capacity`
// events); pop() blocks while it is empty and returns the
// highest-priority element (`Less(a, b)` == "a is lower priority than
// b", std::priority_queue convention; ties resolve to the
// earliest-pushed element, so equal-priority traffic stays FIFO).
// close() wakes everyone: subsequent pushes are refused with kClosed
// and pops drain the remaining elements before reporting nullopt.
template <class T, class Less>
class BoundedPriorityQueue {
 public:
  BoundedPriorityQueue(std::size_t capacity, Less less = Less())
      : capacity_(capacity ? capacity : 1), less_(std::move(less)) {}

  // kClosed when the queue was closed before the element could be
  // added (the element is dropped; the producer owns the fallout).
  QueuePushResult push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return QueuePushResult::kClosed;
    items_.push_back(Entry{std::move(item), next_seq_++});
    std::push_heap(items_.begin(), items_.end(), entry_less());
    not_empty_.notify_one();
    return QueuePushResult::kAccepted;
  }

  // The highest-priority element, or nullopt once closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    std::pop_heap(items_.begin(), items_.end(), entry_less());
    T out = std::move(items_.back().item);
    items_.pop_back();
    not_full_.notify_one();
    return out;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  struct Entry {
    T item;
    std::size_t seq;
  };

  auto entry_less() const {
    return [this](const Entry& a, const Entry& b) {
      if (less_(a.item, b.item)) return true;
      if (less_(b.item, a.item)) return false;
      return a.seq > b.seq;  // equal priority: earlier push wins
    };
  }

  const std::size_t capacity_;
  Less less_;
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::vector<Entry> items_;
  std::size_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace acx
