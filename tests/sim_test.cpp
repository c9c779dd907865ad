// Unit tests for the discrete-event simulation core: event ordering, the
// coroutine process machinery, triggers, mailboxes, deadlock detection,
// and determinism.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "sim/mailbox.h"
#include "sim/proc.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/trigger.h"
#include "sim/units.h"

namespace dcuda::sim {
namespace {

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(micros(2.5), 2.5e-6);
  EXPECT_DOUBLE_EQ(to_micros(millis(1.0)), 1000.0);
  EXPECT_DOUBLE_EQ(gbs(6.0), 6e9);
  EXPECT_DOUBLE_EQ(to_nanos(nanos(7.0)), 7.0);
}

TEST(EventQueue, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(micros(3), [&] { order.push_back(3); });
  sim.schedule(micros(1), [&] { order.push_back(1); });
  sim.schedule(micros(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), micros(3));
}

TEST(EventQueue, TieBrokenByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(micros(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NestedSchedulingAdvancesTime) {
  Simulation sim;
  Time inner_time = -1;
  sim.schedule(micros(1), [&] {
    sim.schedule(micros(1), [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, micros(2));
}

TEST(EventQueue, CancelledEventDoesNotFire) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.schedule_cancellable(micros(1), [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  sim.cancel(id);
  EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  Simulation sim;
  int fired = 0;
  const EventId id = sim.schedule_cancellable(micros(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.pending(id));
  // The slot is recycled for a new event; the stale handle must not touch it.
  sim.schedule(micros(1), [&] { ++fired; });
  EventId stale = id;
  sim.cancel(stale);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceIsIdempotent) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.schedule_cancellable(micros(1), [&] { fired = true; });
  EventId copy = id;
  sim.cancel(id);
  sim.cancel(id);
  sim.cancel(copy);
  EXPECT_FALSE(sim.pending(copy));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DefaultEventIdIsNeverPending) {
  // A fresh engine has no slot yet: the default handle must answer and
  // cancel without reading the (empty) pool.
  Simulation sim;
  EventId id;
  EXPECT_FALSE(sim.pending(id));
  sim.cancel(id);
  EXPECT_FALSE(sim.pending(id));
  EXPECT_EQ(sim.pool_stats().pool_slots, 0u);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(EventQueue, SlotReuseDoesNotResurrectStaleTokens) {
  Simulation sim;
  bool first_fired = false;
  bool second_fired = false;
  EventId stale = sim.schedule_cancellable(micros(1), [&] { first_fired = true; });
  sim.run();
  EXPECT_TRUE(first_fired);
  // The freed slot is reused (LIFO free list) by the next event; the stale
  // handle's generation no longer matches, so cancelling it is a no-op.
  const EventId fresh = sim.schedule_cancellable(micros(1), [&] { second_fired = true; });
  EXPECT_EQ(stale.slot, fresh.slot);
  EXPECT_FALSE(sim.pending(stale));
  EXPECT_TRUE(sim.pending(fresh));
  sim.cancel(stale);
  EXPECT_TRUE(sim.pending(fresh));
  sim.run();
  EXPECT_TRUE(second_fired);
}

TEST(EventPool, SteadyStateDispatchDoesNotAllocate) {
  Simulation sim;
  struct Chain {
    Simulation& s;
    int left;
    void fire() {
      if (--left > 0) s.schedule(micros(1), [this] { fire(); });
    }
  };
  Chain chain{sim, 20000};
  sim.schedule(micros(1), [&] { chain.fire(); });
  sim.run_until(micros(100));  // warm the pool and the key heap
  const Simulation::PoolStats warm = sim.pool_stats();
  sim.run();
  const Simulation::PoolStats done = sim.pool_stats();
  EXPECT_EQ(done.pool_growths, warm.pool_growths);
  EXPECT_EQ(done.heap_fallbacks, warm.heap_fallbacks);
  EXPECT_EQ(done.pending_events, 0u);
  EXPECT_EQ(done.free_slots, done.pool_slots);
}

TEST(EventPool, OversizedCallableFallsBackToHeap) {
  Simulation sim;
  char big[128] = {};
  big[0] = 42;
  char seen = 0;
  sim.schedule(micros(1), [big, &seen] { seen = big[0]; });
  EXPECT_EQ(sim.pool_stats().heap_fallbacks, 1u);
  sim.run();
  EXPECT_EQ(seen, 42);
}

// -- Coroutine frame pool (docs/PERF.md, "Coroutine frames") -----------

Proc<int> pool_leaf(Simulation& sim, int v) {
  co_await sim.delay(micros(1));
  co_return v;
}

Proc<int> pool_middle(Simulation& sim, int v) {
  co_return co_await pool_leaf(sim, v) + 1;
}

Proc<void> pool_child(Simulation& sim, long& sum) {
  sum += co_await pool_leaf(sim, 1);
}

Proc<void> pool_loop(Simulation& sim, int rounds, long& sum) {
  for (int i = 0; i < rounds; ++i) {
    sum += co_await pool_middle(sim, i);
    if (i % 4 == 0) sim.spawn(pool_child(sim, sum), "pool-child");
  }
}

// A coroutine whose frame holds N bytes of locals across its suspension.
template <std::size_t N>
Proc<void> sized_frame(Simulation& sim) {
  std::array<unsigned char, N> locals{};
  co_await sim.delay(0.0);
  locals[0] = 1;
}

// Same frame layout as sized_frame<N>, different coroutine.
template <std::size_t N>
Proc<void> sized_frame_twin(Simulation& sim) {
  std::array<unsigned char, N> locals{};
  co_await sim.delay(0.0);
  locals[0] = 2;
}

// Creates a frame without starting it, destroys it, and returns where it
// lived.
void* frame_address(Proc<void> p) {
  auto h = p.release();
  void* addr = h.address();
  h.destroy();
  return addr;
}

TEST(FramePool, SteadyStateProcsDoNotAllocate) {
  Simulation sim;
  long sum = 0;
  sim.spawn(pool_loop(sim, 20000, sum));
  sim.run_until(micros(100));  // warm the frame lists
  const FramePoolStats warm = frame_pool_stats();
  sim.run();
  const FramePoolStats done = frame_pool_stats();
  EXPECT_EQ(done.fresh, warm.fresh);
  // Every round creates two nested frames, every fourth a spawned pair.
  EXPECT_GE(done.served - warm.served, 2u * 19800u);
  EXPECT_GT(sum, 0);
}

TEST(FramePool, ReusesFramesWithinEachSizeClass) {
  Simulation sim;
  // Warm: one frame of each size, so both classes hold a cached frame.
  void* small = frame_address(sized_frame<32>(sim));
  void* large = frame_address(sized_frame<512>(sim));
  EXPECT_NE(small, large);
  const FramePoolStats before = frame_pool_stats();
  // Each class hands back its own most recently freed frame, whichever
  // coroutine asks.
  EXPECT_EQ(frame_address(sized_frame<512>(sim)), large);
  EXPECT_EQ(frame_address(sized_frame<32>(sim)), small);
  EXPECT_EQ(frame_address(sized_frame_twin<32>(sim)), small);
  const FramePoolStats after = frame_pool_stats();
  EXPECT_EQ(after.served - before.served, 3u);
  EXPECT_EQ(after.fresh, before.fresh);
  // Frames above the largest class always come from the global heap.
  (void)frame_address(sized_frame<4096>(sim));
  EXPECT_EQ(frame_pool_stats().fresh, after.fresh + 1);
}

TEST(FramePool, CachedFramesStayPoisoned) {
#if defined(__SANITIZE_ADDRESS__)
  Simulation sim;
  void* frame = frame_address(sized_frame<32>(sim));
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
  auto h = sized_frame<32>(sim).release();
  EXPECT_EQ(h.address(), frame);
  EXPECT_FALSE(__asan_address_is_poisoned(frame));
  h.destroy();
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
#else
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

TEST(EventQueue, CountsProcessedEvents) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule(micros(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

Proc<void> sleeper(Simulation& sim, Dur d, bool& done) {
  co_await sim.delay(d);
  done = true;
}

TEST(Process, DelayAdvancesClock) {
  Simulation sim;
  bool done = false;
  sim.spawn(sleeper(sim, micros(7), done), "sleeper");
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), micros(7));
}

Proc<int> add_later(Simulation& sim, int a, int b) {
  co_await sim.delay(micros(1));
  co_return a + b;
}

Proc<void> parent(Simulation& sim, int& out) {
  out = co_await add_later(sim, 20, 22);
}

TEST(Process, ChildCoroutineReturnsValue) {
  Simulation sim;
  int out = 0;
  sim.spawn(parent(sim, out), "parent");
  sim.run();
  EXPECT_EQ(out, 42);
}

Proc<void> deep(Simulation& sim, int depth, int& counter) {
  if (depth > 0) {
    co_await sim.delay(nanos(1));
    co_await deep(sim, depth - 1, counter);
  }
  ++counter;
}

TEST(Process, DeeplyNestedChildren) {
  Simulation sim;
  int counter = 0;
  sim.spawn(deep(sim, 200, counter), "deep");
  sim.run();
  EXPECT_EQ(counter, 201);
}

TEST(Process, JoinWaitsForCompletion) {
  Simulation sim;
  bool done = false;
  JoinHandle h = sim.spawn(sleeper(sim, micros(5), done), "sleeper");
  bool join_saw_done = false;
  auto joiner = [&](JoinHandle jh) -> Proc<void> {
    co_await jh.join();
    join_saw_done = done;
  };
  sim.spawn(joiner(h), "joiner");
  sim.run();
  EXPECT_TRUE(join_saw_done);
  EXPECT_TRUE(h.done());
}

TEST(Process, JoinAfterCompletionReturnsImmediately) {
  Simulation sim;
  bool done = false;
  JoinHandle h = sim.spawn(sleeper(sim, micros(1), done), "sleeper");
  Time join_time = -1;
  auto late_joiner = [&]() -> Proc<void> {
    co_await sim.delay(micros(10));
    co_await h.join();
    join_time = sim.now();
  };
  sim.spawn(late_joiner(), "late");
  sim.run();
  EXPECT_DOUBLE_EQ(join_time, micros(10));
}

Proc<void> thrower(Simulation& sim) {
  co_await sim.delay(micros(1));
  throw std::runtime_error("boom");
}

TEST(Process, ExceptionPropagatesToJoin) {
  Simulation sim;
  JoinHandle h = sim.spawn(thrower(sim), "thrower");
  bool caught = false;
  auto joiner = [&]() -> Proc<void> {
    try {
      co_await h.join();
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  };
  sim.spawn(joiner(), "joiner");
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Process, UnjoinedExceptionSurfacesFromRun) {
  Simulation sim;
  sim.spawn(thrower(sim), "thrower");
  EXPECT_THROW(sim.run(), std::runtime_error);
}

Proc<void> await_thrower(Simulation& sim, bool& caught) {
  try {
    co_await thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Process, ExceptionPropagatesThroughAwait) {
  Simulation sim;
  bool caught = false;
  sim.spawn(await_thrower(sim, caught), "awaiter");
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Trigger, NotifyWakesAllWaiters) {
  Simulation sim;
  Trigger trig(sim);
  int woken = 0;
  auto waiter = [&]() -> Proc<void> {
    co_await trig.wait();
    ++woken;
  };
  for (int i = 0; i < 3; ++i) sim.spawn(waiter(), "waiter");
  sim.schedule(micros(2), [&] { trig.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, 3);
}

TEST(Trigger, WaitUntilChecksPredicate) {
  Simulation sim;
  Trigger trig(sim);
  int value = 0;
  Time done_at = -1;
  auto waiter = [&]() -> Proc<void> {
    co_await wait_until(trig, [&] { return value >= 3; });
    done_at = sim.now();
  };
  sim.spawn(waiter(), "waiter");
  for (int i = 1; i <= 3; ++i) {
    sim.schedule(micros(i), [&] {
      ++value;
      trig.notify_all();
    });
  }
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, micros(3));
}

TEST(Deadlock, DetectedWhenWaiterCanNeverWake) {
  Simulation sim;
  Trigger trig(sim);
  auto waiter = [&]() -> Proc<void> { co_await trig.wait(); };
  sim.spawn(waiter(), "stuck-waiter");
  EXPECT_THROW(sim.run(), DeadlockError);
}

TEST(Deadlock, DaemonsAreExempt) {
  Simulation sim;
  Trigger trig(sim);
  auto waiter = [&]() -> Proc<void> { co_await trig.wait(); };
  sim.spawn(waiter(), "daemon-waiter", /*daemon=*/true);
  EXPECT_NO_THROW(sim.run());
}

TEST(Deadlock, DaemonNotNamedWhenNonDaemonIsStuck) {
  // A blocked daemon (e.g. a runtime service loop) must neither mask a real
  // deadlock nor pollute its diagnostic: only the stuck non-daemon process
  // is reported.
  Simulation sim;
  Trigger trig(sim);
  auto waiter = [&]() -> Proc<void> { co_await trig.wait(); };
  sim.spawn(waiter(), "service-daemon", /*daemon=*/true);
  sim.spawn(waiter(), "stuck-worker");
  try {
    sim.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-worker"), std::string::npos) << what;
    EXPECT_EQ(what.find("service-daemon"), std::string::npos) << what;
  }
}

TEST(Deadlock, MessageNamesStuckProcess) {
  Simulation sim;
  Trigger trig(sim);
  auto waiter = [&]() -> Proc<void> { co_await trig.wait(); };
  sim.spawn(waiter(), "rank-42");
  try {
    sim.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("rank-42"), std::string::npos);
  }
}

TEST(RunUntil, StopsAtRequestedTime) {
  Simulation sim;
  bool done = false;
  sim.spawn(sleeper(sim, micros(100), done), "sleeper");
  sim.run_until(micros(50));
  EXPECT_FALSE(done);
  EXPECT_DOUBLE_EQ(sim.now(), micros(50));
  sim.run_until(micros(200));
  EXPECT_TRUE(done);
}

TEST(Mailbox, PopWaitsForPush) {
  Simulation sim;
  Mailbox<int> mb(sim);
  int got = 0;
  Time got_at = -1;
  auto rx = [&]() -> Proc<void> {
    got = co_await mb.pop();
    got_at = sim.now();
  };
  sim.spawn(rx(), "rx");
  sim.schedule(micros(4), [&] { mb.push(99); });
  sim.run();
  EXPECT_EQ(got, 99);
  EXPECT_DOUBLE_EQ(got_at, micros(4));
}

TEST(Mailbox, PreservesFifoOrder) {
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  auto rx = [&]() -> Proc<void> {
    for (int i = 0; i < 5; ++i) got.push_back(co_await mb.pop());
  };
  sim.spawn(rx(), "rx");
  for (int i = 0; i < 5; ++i) mb.push(i);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimestamps) {
  auto run_once = [] {
    Simulation sim;
    Trigger trig(sim);
    Mailbox<int> mb(sim);
    std::vector<double> stamps;
    auto producer = [&]() -> Proc<void> {
      Rng rng(123);
      for (int i = 0; i < 50; ++i) {
        co_await sim.delay(micros(rng.uniform(0.1, 2.0)));
        mb.push(i);
      }
    };
    auto consumer = [&]() -> Proc<void> {
      for (int i = 0; i < 50; ++i) {
        (void)co_await mb.pop();
        stamps.push_back(sim.now());
      }
    };
    sim.spawn(producer(), "prod");
    sim.spawn(consumer(), "cons");
    sim.run();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Rng, DeterministicAndRoughlyUniform) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng r(7);
  double acc = 0;
  for (int i = 0; i < 10000; ++i) {
    double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    acc += x;
  }
  EXPECT_NEAR(acc / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(9);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform_int(2, 6);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 6);
    seen[static_cast<size_t>(v - 2)]++;
  }
  for (int c : seen) EXPECT_GT(c, 100);
}

TEST(Stats, MedianAndPercentiles) {
  const Summary s({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.625), 3.5);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

}  // namespace
}  // namespace dcuda::sim
