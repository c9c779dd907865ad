// Sharded parallel event engine (docs/PERF.md, "Parallel engine").
//
// The engine partitions the simulation into one shard per node and advances
// all shards under a conservative time-window protocol whose lookahead is
// the smallest registered cross-shard link latency. These tests pin down the
// two properties everything else rests on:
//
//   1. Termination and window mechanics on the raw sim:: API — drained
//      queues end run() even when limit is infinite, run_until stops at its
//      limit across window boundaries, multi-shard runs without a
//      registered lookahead are rejected.
//   2. Executor invariance — a full Cluster workload produces
//      byte-identical results (checksum, elapsed simulated time, event
//      count, fabric fault counters) for every executor-group and
//      worker-thread count, under clean, perturbed, and lossy schedules.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/stencil.h"
#include "cluster/cluster.h"
#include "net/fault.h"
#include "net/topology.h"
#include "sim/invariants.h"
#include "sim/simulation.h"

namespace dcuda {
namespace {

constexpr double kLat = 1.4e-6;  // the fabric's wire latency / lookahead

// -- Raw engine: window protocol mechanics ------------------------------

TEST(EngineWindows, DrainedRunTerminates) {
  // Regression: with every queue empty the min next-event time is +inf,
  // and run()'s limit is +inf too — the window loop must break, not spin.
  sim::Simulation s;
  s.configure_shards(4);
  s.register_lookahead(kLat);
  int fired = 0;
  for (int d = 0; d < 4; ++d) s.schedule_on(d, 1e-6 * (d + 1), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 4);
  s.run();  // second run with nothing scheduled must return immediately
  EXPECT_EQ(fired, 4);
}

TEST(EngineWindows, RunUntilStopsAtLimitAcrossWindows) {
  sim::Simulation s;
  s.configure_shards(2);
  s.register_lookahead(kLat);
  std::vector<double> fired;
  for (int i = 0; i < 10; ++i) {
    s.schedule_on(i % 2, 1e-6 * (i + 1), [&fired, i] {
      fired.push_back(1e-6 * (i + 1));
    });
  }
  s.run_until(5.5e-6);  // events at 1..5 us fire, 6..10 us stay pending
  EXPECT_EQ(fired.size(), 5u);
  s.run_until(20e-6);
  EXPECT_EQ(fired.size(), 10u);
  s.run();  // drained; must terminate
  EXPECT_EQ(fired.size(), 10u);
}

TEST(EngineWindows, MultiShardRunWithoutLookaheadThrows) {
  sim::Simulation s;
  s.configure_shards(2);
  s.schedule_on(1, 1.0, [] {});
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(EngineWindows, SingleShardNeedsNoLookahead) {
  // A lone shard runs one unbounded window: nothing crosses shards, so no
  // lookahead is needed to bound it.
  sim::Simulation s;
  int fired = 0;
  s.schedule(1.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
}

// The merge rule itself: same-time arrivals fire in (source shard, send
// order), not in the order the sources ran. Shards 0-2 send, highest index
// first in simulated time; each sends two events to each of shards 3 and 4,
// all arriving at one instant. Times are dyadic, so every send lands on
// exactly kArrive.
std::vector<std::string> merge_logs(int groups, int threads) {
  constexpr int kSources = 3;
  const double kStep = std::ldexp(1.0, -30);
  const double kArrive = std::ldexp(1.0, -16);
  sim::Simulation s;
  s.configure_shards(kSources + 2);
  s.register_lookahead(kLat);
  s.set_executor(groups, threads);
  std::vector<std::string> log(kSources + 2);
  for (int src = 0; src < kSources; ++src) {
    s.schedule_on(src, (kSources - src) * kStep, [&s, &log, src, kArrive] {
      for (int k = 0; k < 2; ++k) {
        for (int dst = kSources; dst < kSources + 2; ++dst) {
          s.schedule_on(dst, kArrive - s.now(), [&s, &log, src, dst, k, kArrive] {
            EXPECT_EQ(s.now(), kArrive);
            log[static_cast<size_t>(dst)] += std::to_string(src) + '.' +
                                             std::to_string(k) + ' ';
          });
        }
      }
    });
  }
  s.run();
  return {log.begin() + kSources, log.end()};
}

TEST(EngineWindows, MergeOrdersSameTimeArrivalsBySourceShard) {
  const std::vector<std::string> want(2, "0.0 0.1 1.0 1.1 2.0 2.1 ");
  EXPECT_EQ(merge_logs(1, 1), want);
  EXPECT_EQ(merge_logs(0, 1), want);
  EXPECT_EQ(merge_logs(2, 2), want);
  EXPECT_EQ(merge_logs(0, 4), want);
}

// Cross-shard ring traffic where every hop is exactly the lookahead — the
// tightest legal schedule. The firing order within each shard must be a
// pure function of the logical schedule, so the per-shard observation logs
// are byte-identical for every executor configuration.
std::vector<std::string> ring_logs(int groups, int threads) {
  constexpr int kShards = 4;
  constexpr int kMsgs = 8;
  constexpr int kHops = 64;
  sim::Simulation s;
  s.configure_shards(kShards);
  s.register_lookahead(kLat);
  s.set_executor(groups, threads);
  std::vector<std::ostringstream> log(kShards);
  struct Hop {
    sim::Simulation* s;
    std::vector<std::ostringstream>* log;
    int id;
    int left;
    void fire(int at) {
      (*log)[static_cast<size_t>(at)]
          << id << '@' << static_cast<long long>(s->now() * 1e9) << ' ';
      if (--left <= 0) return;
      const int next = (at + 1) % kShards;
      s->schedule_on(next, kLat, [this, next] { fire(next); });
    }
  };
  std::vector<Hop> hops;
  hops.reserve(kMsgs);
  for (int i = 0; i < kMsgs; ++i) hops.push_back(Hop{&s, &log, i, kHops});
  for (int i = 0; i < kMsgs; ++i) {
    const int at = i % kShards;
    s.schedule_on(at, 1e-9 * (i + 1),
                  [h = &hops[static_cast<size_t>(i)], at] { h->fire(at); });
  }
  s.run();
  std::vector<std::string> out;
  out.reserve(kShards);
  for (auto& os : log) out.push_back(os.str());
  return out;
}

TEST(EngineWindows, CrossShardOrderIsExecutorInvariant) {
  const std::vector<std::string> serial = ring_logs(1, 1);
  ASSERT_FALSE(serial[0].empty());
  EXPECT_EQ(ring_logs(0, 1), serial);  // one group per shard, serial
  EXPECT_EQ(ring_logs(2, 2), serial);  // two groups, two workers
  EXPECT_EQ(ring_logs(0, 4), serial);  // four groups, four workers
}

// -- Frame pool under multi-threaded windows (docs/PERF.md) --------------

sim::Proc<int> frame_leaf(sim::Simulation& s, int v) {
  co_await s.delay(kLat / 4);
  co_return v;
}

sim::Proc<int> frame_middle(sim::Simulation& s, int v) {
  co_return co_await frame_leaf(s, v) + 1;
}

sim::Proc<void> frame_child(sim::Simulation& s, long& sum) {
  sum += co_await frame_leaf(s, 1);
}

// Runs the same workload in two phases one second of simulated time apart:
// nested awaits on its own shard, plus children spawned on the next shard
// by cross-shard events (their frames are allocated and freed there).
sim::Proc<void> frame_workload(sim::Simulation& s, int shard, int shards,
                             std::vector<long>& sums) {
  for (int phase = 0; phase < 2; ++phase) {
    for (int i = 0; i < 200; ++i) {
      sums[static_cast<size_t>(shard)] += co_await frame_middle(s, i);
      if (i % 8 == 0) {
        const int next = (shard + 1) % shards;
        s.schedule_on(next, kLat, [&s, &sums, next] {
          s.spawn(frame_child(s, sums[static_cast<size_t>(next)]), "child");
        });
      }
    }
    co_await s.delay(1.0);
  }
}

TEST(EngineWindows, ShardedRerunTakesFramesFromWarmPools) {
  // Shards map to worker threads statically, so each thread's frame lists
  // warmed by the first phase serve the second phase in full.
  constexpr int kShards = 4;
  sim::Simulation s;
  s.configure_shards(kShards);
  s.register_lookahead(kLat);
  s.set_executor(0, 4);
  std::vector<long> sums(kShards, 0);
  for (int d = 0; d < kShards; ++d) {
    s.spawn_on(d, frame_workload(s, d, kShards, sums), "workload");
  }
  s.run_until(0.5);  // first phase
  const sim::FramePoolStats warm = sim::frame_pool_stats();
  const std::vector<long> first = sums;
  s.run();  // second phase
  const sim::FramePoolStats done = sim::frame_pool_stats();
  EXPECT_EQ(done.fresh, warm.fresh);
  EXPECT_GT(done.served - warm.served, 4u * 400u);
  for (int d = 0; d < kShards; ++d) {
    EXPECT_EQ(sums[static_cast<size_t>(d)], 2 * first[static_cast<size_t>(d)]);
  }
}

// -- Cluster: full-stack executor invariance ----------------------------

struct Fingerprint {
  double checksum = 0.0;
  double elapsed = 0.0;
  std::size_t events = 0;
  std::string faults;
  std::string obs;
  bool operator==(const Fingerprint& o) const {
    return checksum == o.checksum && elapsed == o.elapsed &&
           events == o.events && faults == o.faults && obs == o.obs;
  }
};

Fingerprint run_stencil(int groups, int threads, std::uint64_t perturb,
                        double drop, net::TopoConfig topo = {}) {
  sim::MachineConfig m;
  m.num_nodes = 4;
  m.shards = groups;
  m.threads = threads;
  m.perturb_seed = perturb;
  m.fault.drop_prob = drop;
  if (drop > 0.0) m.fault.dup_prob = 0.005;
  m.net.topo = topo;
  apps::stencil::Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 4;
  Cluster c({.machine = m, .ranks_per_device = 4});
  sim::InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  apps::stencil::Result res = apps::stencil::run_dcuda(c, cfg);
  obs.finalize();
  Fingerprint fp;
  fp.checksum = res.checksum;
  fp.elapsed = res.elapsed;
  fp.events = c.sim().events_processed();
  const net::Fabric::FaultStats& fs = c.fabric().fault_stats();
  std::ostringstream os;
  os << fs.originals << ' ' << fs.drops << ' ' << fs.dups << ' '
     << fs.retransmits << ' ' << fs.timeouts << ' ' << fs.acks_sent;
  fp.faults = os.str();
  EXPECT_TRUE(obs.violations().empty())
      << obs.violations().size() << " oracle violations, first: "
      << obs.violations().front();
  fp.obs = obs.report();
  return fp;
}

TEST(ClusterParallel, CleanRunIsExecutorInvariant) {
  const Fingerprint serial = run_stencil(1, 1, 0, 0.0);
  EXPECT_TRUE(run_stencil(0, 1, 0, 0.0) == serial);
  EXPECT_TRUE(run_stencil(0, 4, 0, 0.0) == serial);
  EXPECT_TRUE(run_stencil(2, 2, 0, 0.0) == serial);
}

TEST(ClusterParallel, PerturbedRunIsExecutorInvariant) {
  const Fingerprint serial = run_stencil(1, 1, 0xfeedface, 0.0);
  EXPECT_TRUE(run_stencil(0, 4, 0xfeedface, 0.0) == serial);
}

TEST(ClusterParallel, FaultyRunIsExecutorInvariant) {
  const Fingerprint serial = run_stencil(1, 1, 7, 0.01);
  EXPECT_TRUE(run_stencil(0, 4, 7, 0.01) == serial);
  EXPECT_TRUE(run_stencil(2, 2, 7, 0.01) == serial);
}

TEST(ClusterParallel, MultiHopTopologyRunIsExecutorInvariant) {
  // Fat tree with 2 NIC rails: hop events cross shards at the (shorter)
  // per-hop lookahead and the rail mux resequences at the receiver — the
  // full workload fingerprint must still be executor-invariant
  // (docs/TOPOLOGY.md; the fig6_fattree and fig10_fattree golden cases run
  // the same comparison over the fig benchmarks).
  net::TopoConfig topo;
  topo.kind = net::TopologyKind::kFatTree;
  topo.fat_tree_arity = 2;  // 4 nodes -> 2 leaves, cross-leaf ECMP width 2
  topo.rails = 2;
  const Fingerprint serial = run_stencil(1, 1, 0, 0.0, topo);
  EXPECT_TRUE(run_stencil(0, 4, 0, 0.0, topo) == serial);
  EXPECT_TRUE(run_stencil(2, 2, 0, 0.0, topo) == serial);
}

TEST(ClusterParallel, FaultyTorusRunIsExecutorInvariant) {
  // Go-back-N recovery over multi-hop torus routes, serial vs threaded.
  net::TopoConfig topo;
  topo.kind = net::TopologyKind::kTorus3D;
  const Fingerprint serial = run_stencil(1, 1, 7, 0.01, topo);
  EXPECT_TRUE(run_stencil(0, 4, 7, 0.01, topo) == serial);
}

TEST(ClusterParallel, ThreadCountDoesNotChangeEventCount) {
  // events_processed() sums per-shard counters; any divergence between
  // executor settings would surface here even if results happened to agree.
  const Fingerprint a = run_stencil(1, 1, 3, 0.0);
  const Fingerprint b = run_stencil(0, 2, 3, 0.0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.elapsed, b.elapsed);
}

}  // namespace
}  // namespace dcuda
