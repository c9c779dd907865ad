// Property-based and parameterized tests: invariants of the simulation
// kernel, the queues, notification matching, and end-to-end determinism,
// swept over parameter spaces with TEST_P / INSTANTIATE_TEST_SUITE_P.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <tuple>

#include "cluster/cluster.h"
#include "queue/circular_queue.h"
#include "sim/random.h"
#include "sim/resource.h"

namespace dcuda {
namespace {

using sim::Proc;
using sim::Simulation;

// ---------------------------------------------------------------- queues --

class QueueSweep : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(QueueSweep, FifoNoLossUnderRandomTiming) {
  const auto [capacity, items, consumer_us] = GetParam();
  Simulation s;
  queue::CircularQueue<int> q(s, capacity, queue::local_transport(s));
  std::vector<int> got;
  sim::Rng rng(static_cast<std::uint64_t>(capacity * 1000 + items));
  auto producer = [](Simulation& sim, queue::CircularQueue<int>& qq, int n,
                     sim::Rng r) -> Proc<void> {
    for (int i = 0; i < n; ++i) {
      co_await sim.delay(sim::micros(r.uniform(0.0, 1.0)));
      co_await qq.enqueue(i);
    }
  };
  auto consumer = [](Simulation& sim, queue::CircularQueue<int>& qq, int n,
                     std::vector<int>& out, double delay_us) -> Proc<void> {
    for (int i = 0; i < n; ++i) {
      out.push_back(co_await qq.dequeue());
      co_await sim.delay(sim::micros(delay_us));
    }
  };
  s.spawn(producer(s, q, items, rng), "p");
  s.spawn(consumer(s, q, items, got, consumer_us), "c");
  s.run();
  ASSERT_EQ(got.size(), static_cast<size_t>(items));
  for (int i = 0; i < items; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, QueueSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 16, 64),   // ring entries
                       ::testing::Values(7, 64, 257),        // items
                       ::testing::Values(0.0, 0.3, 2.0)));   // consumer pace us

// --------------------------------------------------- processor sharing ----

class PsSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PsSweep, WorkConservationAndOrdering) {
  const auto [jobs, cap] = GetParam();
  Simulation s;
  sim::SharedResource res(s, 100.0, cap);
  sim::Rng rng(static_cast<std::uint64_t>(jobs) * 31 + static_cast<std::uint64_t>(cap));
  struct Rec {
    double work;
    sim::Time finish = -1;
  };
  std::vector<Rec> recs(static_cast<size_t>(jobs));
  auto job = [](Simulation& sim, sim::SharedResource& r, Rec& rec) -> Proc<void> {
    co_await r.use(rec.work);
    rec.finish = sim.now();
  };
  double total = 0;
  for (auto& rec : recs) {
    rec.work = rng.uniform(1.0, 20.0);
    total += rec.work;
    s.spawn(job(s, res, rec), "j");
  }
  s.run();
  // Work conservation: total service delivered equals submitted work.
  EXPECT_NEAR(res.work_done(), total, 1e-6 * total);
  // Simultaneous arrivals: completion order equals work order (processor
  // sharing preserves it), and makespan is bounded by capacity and cap.
  for (size_t i = 0; i < recs.size(); ++i)
    for (size_t j = 0; j < recs.size(); ++j)
      if (recs[i].work < recs[j].work) {
        EXPECT_LE(recs[i].finish, recs[j].finish + 1e-12);
      }
  EXPECT_GE(s.now() + 1e-9, total / 100.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PsSweep,
                         ::testing::Combine(::testing::Values(1, 2, 7, 25),
                                            ::testing::Values(5.0, 30.0, 1e9)));

// ------------------------------------------------- notification matching --

struct MatchCase {
  int notifications;
  std::uint64_t seed;
};

// Names the ctest entry (e.g. n3_seed11); gtest's default printer would dump
// the struct's bytes, uninitialized padding included.
void PrintTo(const MatchCase& m, std::ostream* os) {
  *os << "n" << m.notifications << "_seed" << m.seed;
}

class MatchSweep : public ::testing::TestWithParam<MatchCase> {};

// Oracle model: multiset of (win, src, tag) triples; matching removes in
// arrival order. The device library must agree with it for random traffic
// and random queries.
TEST_P(MatchSweep, AgreesWithOracle) {
  const auto param = GetParam();
  sim::Rng rng(param.seed);
  Cluster c({.machine = sim::machine_config(1), .ranks_per_device = 4});
  auto mem = c.device(0).alloc<std::byte>(256);

  // Rank 1..3 send notifications to rank 0 with random tags on two windows.
  struct Sent {
    int win, src, tag;
  };
  std::vector<Sent> plan;
  const int per_sender = param.notifications;
  for (int s = 1; s <= 3; ++s) {
    for (int i = 0; i < per_sender; ++i) {
      plan.push_back(Sent{static_cast<int>(rng.next_below(2)), s,
                          static_cast<int>(rng.next_below(3))});
    }
  }

  // Queries: random (win, src, tag) filters with wildcards, executed after
  // all notifications arrived. Expected counts from the oracle.
  struct Query {
    std::int32_t win;
    int src, tag;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(Query{rng.next_below(3) == 0 ? kAnyWindow
                                                   : static_cast<std::int32_t>(rng.next_below(2)),
                            rng.next_below(3) == 0 ? kAnySource
                                                   : static_cast<int>(1 + rng.next_below(3)),
                            rng.next_below(3) == 0 ? kAnyTag
                                                   : static_cast<int>(rng.next_below(3))});
  }

  std::vector<int> matched(queries.size(), 0);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w0 = co_await win_create(ctx, kCommWorld, mem);
    Window w1 = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank != 0) {
      for (const auto& sent : plan) {
        if (sent.src != ctx.world_rank) continue;
        co_await put_notify(ctx, sent.win == 0 ? w0 : w1, 0, 0, 0, nullptr, sent.tag);
      }
      co_await flush(ctx);
    }
    co_await barrier(ctx, kCommWorld);
    if (ctx.world_rank == 0) {
      // Ensure all notifications are drained into the pending buffer (the
      // barrier orders commands per rank, so they all arrived).
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const auto& q = queries[qi];
        matched[qi] =
            co_await test_notifications(ctx, q.win, q.src, q.tag, 1 << 20);
      }
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w1);
    co_await win_free(ctx, w0);
  });

  // Oracle: consume in arrival order. Barrier guarantees per-sender
  // delivery, and our queries consume everything eventually, so only the
  // *counts* are compared (arrival interleaving across senders is
  // implementation-defined).
  std::multiset<std::tuple<int, int, int>> oracle;
  for (const auto& sent : plan) oracle.insert({sent.win, sent.src, sent.tag});
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& q = queries[qi];
    int expect = 0;
    for (auto it = oracle.begin(); it != oracle.end();) {
      const auto [w, s, t] = *it;
      const bool ok = (q.win == kAnyWindow || q.win == w) &&
                      (q.src == kAnySource || q.src == s) &&
                      (q.tag == kAnyTag || q.tag == t);
      if (ok) {
        it = oracle.erase(it);
        ++expect;
      } else {
        ++it;
      }
    }
    EXPECT_EQ(matched[qi], expect) << "query " << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, MatchSweep,
                         ::testing::Values(MatchCase{3, 11}, MatchCase{8, 22},
                                           MatchCase{16, 33}, MatchCase{5, 44},
                                           MatchCase{10, 55}));

// ------------------------------------- perturbed-schedule properties ------

// The queue/resource invariants above must also hold when the engine's
// same-timestamp tie-breaks are shuffled and deliveries jittered
// (sim/perturb.h): FIFO handoff and processor-sharing conservation are
// structural guarantees, not accidents of insertion order.

class QueuePerturbedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueuePerturbedSweep, FifoNoLossUnderShuffledTies) {
  const std::uint64_t seed = GetParam();
  Simulation s;
  s.set_perturbation(seed);
  queue::CircularQueue<int> q(s, 3, queue::local_transport(s));
  std::vector<int> got;
  auto producer = [](Simulation& sim, queue::CircularQueue<int>& qq) -> Proc<void> {
    for (int i = 0; i < 64; ++i) {
      // Zero-delay bursts: every enqueue is a same-timestamp tie.
      if (i % 8 == 0) co_await sim.delay(sim::micros(1.0));
      co_await qq.enqueue(i);
    }
  };
  auto consumer = [](queue::CircularQueue<int>& qq, std::vector<int>& out) -> Proc<void> {
    for (int i = 0; i < 64; ++i) out.push_back(co_await qq.dequeue());
  };
  s.spawn(producer(s, q), "p");
  s.spawn(consumer(q, got), "c");
  s.run();
  ASSERT_EQ(got.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueuePerturbedSweep,
                         ::testing::Values(0x71001, 0x71002, 0x71003, 0x71004,
                                           0x71005, 0x71006, 0x71007, 0x71008));

class PsPerturbedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsPerturbedSweep, WorkConservationSurvivesShuffledTies) {
  const std::uint64_t seed = GetParam();
  Simulation s;
  s.set_perturbation(seed);
  sim::SharedResource res(s, 100.0, 30.0);
  sim::Rng rng(seed);
  std::vector<double> works(25);
  double total = 0;
  auto job = [](sim::SharedResource& r, double w) -> Proc<void> {
    co_await r.use(w);
  };
  for (double& w : works) {
    w = rng.uniform(1.0, 20.0);
    total += w;
    s.spawn(job(res, w), "j");
  }
  s.run();
  EXPECT_NEAR(res.work_done(), total, 1e-6 * total);
  EXPECT_GE(s.now() + 1e-9, total / 100.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsPerturbedSweep,
                         ::testing::Values(0x72001, 0x72002, 0x72003, 0x72004,
                                           0x72005, 0x72006, 0x72007, 0x72008));

// ------------------------------------------------ wildcard matching -------

// Sweeps wait_notifications across every wildcard axis combination
// (kAnyWindow x kAnySource x kAnyTag) and counts > 1. Senders 1..3 each
// put `count` notifications on both windows with tag == sender rank, so the
// expected match total is a closed-form function of the wildcard mask.
class WildcardSweep
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool, int>> {};

TEST_P(WildcardSweep, WaitConsumesExactlyCountThenRestIsDrainable) {
  const auto [any_win, any_src, any_tag, count] = GetParam();
  Cluster c({.machine = sim::machine_config(1), .ranks_per_device = 4});
  auto mem = c.device(0).alloc<std::byte>(256);
  // Matching notifications available to the first wait under this filter:
  // exact filters pin window 0, source 1, tag 1; tag equals the sender, so
  // an exact tag with wildcard source still selects a single sender.
  const int avail = count * (any_win ? 2 : 1) *
                    (any_src ? (any_tag ? 3 : 1) : 1);
  int drained = -1;
  c.run([&](Context& ctx) -> Proc<void> {
    Window w0 = co_await win_create(ctx, kCommWorld, mem);
    Window w1 = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank != 0) {
      for (int i = 0; i < count; ++i) {
        co_await put_notify(ctx, w0, 0, 0, 0, nullptr, ctx.world_rank);
        co_await put_notify(ctx, w1, 0, 0, 0, nullptr, ctx.world_rank);
      }
      co_await flush(ctx);
    }
    co_await barrier(ctx, kCommWorld);
    if (ctx.world_rank == 0) {
      const std::int32_t win_f = any_win ? kAnyWindow : w0.device_id;
      const int src_f = any_src ? kAnySource : 1;
      const int tag_f = any_tag ? kAnyTag : 1;
      co_await wait_notifications(ctx, win_f, src_f, tag_f, count);
      // The wait consumed exactly `count`; the rest of the matching set must
      // still be pending.
      drained = co_await test_notifications(ctx, win_f, src_f, tag_f, 1 << 20);
      // Drain everything else so win_free doesn't leave queued entries.
      co_await test_notifications(ctx, kAnyWindow, kAnySource, kAnyTag, 1 << 20);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w1);
    co_await win_free(ctx, w0);
  });
  EXPECT_EQ(drained, avail - count);
}

INSTANTIATE_TEST_SUITE_P(Axes, WildcardSweep,
                         ::testing::Combine(::testing::Bool(),   // kAnyWindow
                                            ::testing::Bool(),   // kAnySource
                                            ::testing::Bool(),   // kAnyTag
                                            ::testing::Values(1, 2, 5)));

// Mixed wildcard/exact waiters contending for the same notifications: the
// wildcard waiter runs first and must take the *earliest* arrival (matching
// is in arrival order, §III-C queue compression), leaving the later
// duplicate for the exact waiter instead of starving it.
TEST(WildcardSweep, WildcardWaiterTakesEarliestArrivalNotTheLast) {
  Cluster c({.machine = sim::machine_config(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<std::byte>(64);
  int leftover = -1;
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank == 1) {
      // Equal-sized puts from one origin deliver in issue order: 5, 6, 5.
      co_await put_notify(ctx, w, 0, 0, 0, nullptr, 5);
      co_await put_notify(ctx, w, 0, 0, 0, nullptr, 6);
      co_await put_notify(ctx, w, 0, 0, 0, nullptr, 5);
      co_await flush(ctx);
    }
    co_await barrier(ctx, kCommWorld);
    if (ctx.world_rank == 0) {
      // Wildcard waiter races ahead: consumes the first tag-5 arrival.
      co_await wait_notifications(ctx, kAnyWindow, kAnySource, kAnyTag, 1);
      // Exact waiters still complete from what is left.
      co_await wait_notifications(ctx, w, 1, 5, 1);
      co_await wait_notifications(ctx, w, 1, 6, 1);
      leftover = co_await test_notifications(ctx, kAnyWindow, kAnySource,
                                             kAnyTag, 1 << 20);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  EXPECT_EQ(leftover, 0);
}

// ------------------------------------------------------- determinism ------

class AppDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(AppDeterminism, SameConfigSameSimulatedTime) {
  const int nodes = GetParam();
  auto run_once = [&] {
    Cluster c({.machine = sim::machine_config(nodes), .ranks_per_device = 4});
    auto mem = c.device(0).alloc<std::byte>(1024);
    return c.run([&](Context& ctx) -> Proc<void> {
      Window w = co_await win_create(ctx, kCommWorld, mem);
      for (int i = 0; i < 5; ++i) {
        const int peer = (ctx.world_rank + 1) % ctx.world_size;
        co_await put_notify(ctx, w, peer, 0, 64, mem.data(), 0);
        co_await wait_notifications(ctx, w, kAnySource, 0, 1);
      }
      co_await barrier(ctx, kCommWorld);
      co_await win_free(ctx, w);
    });
  };
  const double a = run_once();
  const double b = run_once();
  EXPECT_EQ(a, b);  // bit-identical simulated durations
}

INSTANTIATE_TEST_SUITE_P(Nodes, AppDeterminism, ::testing::Values(1, 2, 3));

// -------------------------------------------------------- fabric sweep ----

class FabricSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FabricSweep, MeasuredBandwidthTracksConfig) {
  const auto [gbs_rate, size_mb] = GetParam();
  sim::NetConfig nc;
  nc.bandwidth = sim::gbs(gbs_rate);
  Simulation s;
  net::Fabric fab(s, 2, nc);
  const double bytes = size_mb * 1e6;
  sim::Time arrival = -1;
  auto rx = [](Simulation& sim, net::Fabric& f, sim::Time& t) -> Proc<void> {
    (void)co_await f.rx(1).pop();
    t = sim.now();
  };
  s.spawn(rx(s, fab, arrival), "rx");
  fab.send(net::Packet(0, 1, bytes));
  s.run();
  const double measured = bytes / arrival;
  EXPECT_NEAR(measured, sim::gbs(gbs_rate), sim::gbs(gbs_rate) * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, FabricSweep,
                         ::testing::Combine(::testing::Values(1.0, 6.0, 12.0),
                                            ::testing::Values(1.0, 8.0)));

}  // namespace
}  // namespace dcuda
