#pragma once

// Unbounded typed message queue between simulated processes.

#include <deque>
#include <optional>
#include <utility>

#include "sim/block_pool.h"
#include "sim/proc.h"
#include "sim/trigger.h"

namespace dcuda::sim {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim) : trig_(sim) {}

  void push(T msg) {
    items_.push_back(std::move(msg));
    trig_.notify_all();
  }

  std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  Proc<T> pop() {
    while (items_.empty()) co_await trig_.wait();
    T v = std::move(items_.front());
    items_.pop_front();
    co_return v;
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  Trigger& trigger() { return trig_; }

 private:
  std::deque<T, PoolAllocator<T>> items_;  // pooled: no malloc once warm
  Trigger trig_;
};

}  // namespace dcuda::sim
