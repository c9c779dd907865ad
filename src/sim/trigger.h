#pragma once

// Condition-variable style synchronization for simulated processes.

#include <coroutine>
#include <utility>

#include "sim/block_pool.h"
#include "sim/simulation.h"

namespace dcuda::sim {

// A broadcast wake-up point. Waiters must re-check their predicate after
// waking (spurious wake-ups are possible by design); use wait_until for the
// common predicate loop.
class Trigger {
 public:
  explicit Trigger(Simulation& sim)
      : sim_(&sim), owner_shard_(sim.current_shard()) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  auto wait() {
    struct Awaiter {
      Trigger* t;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        t->assert_affinity();
        t->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  // Wakes all current waiters at the current simulated time (as separate
  // events, never inline, to avoid re-entrancy). schedule_resume only
  // enqueues — no user code runs during the loop, so waiters_ cannot change
  // under us and its capacity is reused across notifications.
  void notify_all() {
    assert_affinity();
    for (auto h : waiters_) sim_->schedule_resume(h);
    waiters_.clear();
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  // Shard affinity (docs/PERF.md, "Parallel engine"): during a
  // multi-threaded window a trigger may only be waited on or notified from
  // the shard it was built in — a cross-shard touch would race on the
  // waiter list and the engine's per-shard queues. Serial runs migrate
  // freely; the window protocol keeps them causally ordered.
  void assert_affinity() const {
    assert(!sim_->parallel_execution() ||
           sim_->current_shard() == owner_shard_);
  }

  Simulation* sim_;
  int owner_shard_;
  PoolVector<std::coroutine_handle<>> waiters_;  // pooled: waits never malloc
};

// Suspends until pred() holds, re-checking whenever the trigger fires.
template <typename Pred>
Proc<void> wait_until(Trigger& trig, Pred pred) {
  while (!pred()) co_await trig.wait();
}

}  // namespace dcuda::sim
