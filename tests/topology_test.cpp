// Topology-layer battery (net/topology.h, net/router.h, net/rail.h,
// docs/TOPOLOGY.md).
//
// Four layers:
//  * Conformance — fat-tree routes are valid up/down paths through the
//    link tables (uplink, downlink, egress, connected end to end), torus
//    routes are minimal dimension-order walks whose hop counts equal the
//    wraparound-aware distance.
//  * Determinism — ECMP selection replays exactly across independently
//    constructed topology/router instances (it is a pure hash, no stream
//    state), and different salts pick different spreads.
//  * Rail mux — the Resequencer releases strict mux order under arbitrary
//    arrival order, and end-to-end fabric traffic over fat tree / torus /
//    multi-rail / the jittered flat default arrives exactly once, in order,
//    with a clean oracle suite, byte-identically under serial and
//    multi-threaded sharded executors.
//  * Mutation checks, wired as ctest cases: disabling the rail-mux
//    resequencer must fire the FIFO/non-overtaking oracle, on a multi-rail
//    fat tree and on the jittered flat default alike; disabling
//    shared-link capacity accounting must fire the link-capacity oracle.
//    Each test PASSES by proving the battery catches the mutation.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/rail.h"
#include "net/router.h"
#include "net/topology.h"
#include "sim/invariants.h"
#include "sim/perturb.h"
#include "sim/simulation.h"

namespace dcuda {
namespace {

using net::Route;
using net::RouteMode;
using net::TopoConfig;
using net::Topology;
using net::TopologyKind;
using sim::InvariantObserver;

TopoConfig fat_tree(int arity) {
  TopoConfig tc;
  tc.kind = TopologyKind::kFatTree;
  tc.fat_tree_arity = arity;
  return tc;
}

TopoConfig torus(int x = 0, int y = 0, int z = 0) {
  TopoConfig tc;
  tc.kind = TopologyKind::kTorus3D;
  tc.torus_x = x;
  tc.torus_y = y;
  tc.torus_z = z;
  return tc;
}

// -- Fat-tree conformance ------------------------------------------------

TEST(FatTree, ShapeAndLeafAssignment) {
  Topology t(8, fat_tree(4));
  EXPECT_EQ(t.num_leaves(), 2);
  EXPECT_EQ(t.num_spines(), 4);
  EXPECT_EQ(t.num_switches(), 6);
  // uplinks (2*4) + downlinks (4*2) + egress (8)
  EXPECT_EQ(t.num_links(), 24);
  EXPECT_EQ(t.leaf_of(0), 0);
  EXPECT_EQ(t.leaf_of(3), 0);
  EXPECT_EQ(t.leaf_of(4), 1);
  EXPECT_EQ(t.leaf_of(7), 1);
}

TEST(FatTree, UpDownPathValidity) {
  const int nodes = 8;
  Topology t(nodes, fat_tree(4));
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      const std::vector<Route>& routes = t.paths(src, dst);
      ASSERT_GE(routes.size(), 1u);
      if (src == dst) {
        EXPECT_EQ(routes.size(), 1u);
        EXPECT_EQ(routes[0].hops(), 0);
        continue;
      }
      const int ls = t.leaf_of(src);
      const int ld = t.leaf_of(dst);
      if (ls == ld) {
        // Same leaf: exactly one route, one egress hop off the shared leaf.
        ASSERT_EQ(routes.size(), 1u);
        ASSERT_EQ(routes[0].hops(), 1);
        EXPECT_EQ(t.link_from(routes[0].links[0]), ls);
        EXPECT_EQ(t.link_to(routes[0].links[0]), -1);
        continue;
      }
      // Cross-leaf: one equal-cost candidate per spine, each a strict
      // up/down path — uplink from the source leaf to a spine, downlink
      // from that spine to the destination leaf, egress to the node.
      ASSERT_EQ(static_cast<int>(routes.size()), t.num_spines());
      std::set<int> spines_used;
      for (const Route& r : routes) {
        ASSERT_EQ(r.hops(), 3);
        ASSERT_EQ(r.switches.size(), 3u);
        const int spine = t.link_to(r.links[0]);
        EXPECT_GE(spine, t.num_leaves());
        EXPECT_LT(spine, t.num_switches());
        EXPECT_EQ(t.link_from(r.links[0]), ls);
        EXPECT_EQ(t.link_from(r.links[1]), spine);
        EXPECT_EQ(t.link_to(r.links[1]), ld);
        EXPECT_EQ(t.link_from(r.links[2]), ld);
        EXPECT_EQ(t.link_to(r.links[2]), -1);
        // switches[i] is the switch links[i] departs from.
        EXPECT_EQ(r.switches[0], ls);
        EXPECT_EQ(r.switches[1], spine);
        EXPECT_EQ(r.switches[2], ld);
        spines_used.insert(spine);
      }
      // The candidates cover every spine exactly once (full ECMP width).
      EXPECT_EQ(static_cast<int>(spines_used.size()), t.num_spines());
    }
  }
}

TEST(FatTree, SingleLeafHasNoSpines) {
  Topology t(4, fat_tree(4));
  EXPECT_EQ(t.num_leaves(), 1);
  EXPECT_EQ(t.num_spines(), 0);
  // All traffic is same-leaf: one egress hop per pair.
  EXPECT_EQ(t.paths(0, 3).size(), 1u);
  EXPECT_EQ(t.paths(0, 3)[0].hops(), 1);
}

// -- Torus conformance ---------------------------------------------------

TEST(Torus, AutoDimensionsNearCubic) {
  Topology t8(8, torus());
  EXPECT_EQ(t8.torus_dims(), (std::array<int, 3>{2, 2, 2}));
  Topology t27(27, torus());
  EXPECT_EQ(t27.torus_dims(), (std::array<int, 3>{3, 3, 3}));
}

TEST(Torus, ShortestPaths) {
  const int nodes = 27;  // 3x3x3: every dimension can wrap
  Topology t(nodes, torus());
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      const std::vector<Route>& routes = t.paths(src, dst);
      ASSERT_GE(routes.size(), 1u);
      const int d = t.torus_distance(src, dst);
      if (src == dst) {
        EXPECT_EQ(d, 0);
        continue;
      }
      for (const Route& r : routes) {
        // Minimal: every candidate's hop count equals the wraparound-aware
        // distance, and the walk never revisits a router.
        EXPECT_EQ(r.hops(), d) << src << "->" << dst;
        std::set<int> seen(r.switches.begin(), r.switches.end());
        EXPECT_EQ(seen.size(), r.switches.size());
      }
    }
  }
}

TEST(Torus, WraparoundTakesShorterDirection) {
  // 4x1x1 ring: 0 -> 3 is one wraparound hop, not three forward hops.
  Topology t(4, torus(4, 1, 1));
  EXPECT_EQ(t.torus_distance(0, 3), 1);
  EXPECT_EQ(t.torus_distance(0, 2), 2);  // tie: either way is two hops
  const std::vector<Route>& r = t.paths(0, 3);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].hops(), 1);
  // On 3x3x3, (0,0,0) -> (2,0,0) wraps backwards in x: one hop.
  Topology t27(27, torus());
  const int far_x = 2 * 3 * 3;  // coords (2, 0, 0)
  EXPECT_EQ(t27.torus_coords(far_x), (std::array<int, 3>{2, 0, 0}));
  EXPECT_EQ(t27.torus_distance(0, far_x), 1);
  EXPECT_EQ(t27.paths(0, far_x)[0].hops(), 1);
}

TEST(Torus, DiagonalPairHasMultipleCandidates) {
  // (0,0,0) -> (1,1,1) on 2x2x2: distance 3, all 6 dimension orders give
  // distinct link sequences.
  Topology t(8, torus());
  EXPECT_EQ(t.torus_distance(0, 7), 3);
  EXPECT_EQ(t.paths(0, 7).size(), 6u);
}

// -- Deterministic route selection ---------------------------------------

TEST(Router, EcmpReplaysAcrossInstances) {
  // ECMP is a pure hash of (salt, src, dst, mux_seq): two independently
  // built topology/router pairs make identical choices for every message.
  TopoConfig tc = fat_tree(4);
  tc.ecmp_seed = 0x7071;
  Topology t1(8, tc), t2(8, tc);
  net::Router r1(t1), r2(t2);
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      for (std::uint64_t msg = 1; msg <= 64; ++msg) {
        ASSERT_EQ(r1.select(src, dst, msg, nullptr),
                  r2.select(src, dst, msg, nullptr));
      }
    }
  }
}

TEST(Router, EcmpSaltChangesSpread) {
  TopoConfig a = fat_tree(4);
  TopoConfig b = fat_tree(4);
  b.ecmp_seed = 0xdecaf;
  Topology ta(8, a), tb(8, b);
  net::Router ra(ta), rb(tb);
  int differ = 0, spread = 0;
  std::set<int> chosen;
  for (std::uint64_t msg = 1; msg <= 256; ++msg) {
    const int pa = ra.select(0, 4, msg, nullptr);
    if (pa != rb.select(0, 4, msg, nullptr)) ++differ;
    chosen.insert(pa);
  }
  spread = static_cast<int>(chosen.size());
  EXPECT_GT(differ, 0);           // the salt is actually folded in
  EXPECT_EQ(spread, 4);           // the hash reaches every spine
}

TEST(Router, AdaptiveRotatesThroughAllCandidates) {
  // Without a kRoute perturbation, adaptive mode walks the candidates from
  // the ECMP base using sender-local rotation: any 4 consecutive messages
  // of one pair cover all 4 spines.
  TopoConfig tc = fat_tree(4);
  tc.route = RouteMode::kAdaptive;
  Topology t(8, tc);
  net::Router r(t);
  std::set<int> chosen;
  for (std::uint64_t msg = 1; msg <= 4; ++msg) {
    chosen.insert(r.select(0, 4, msg, nullptr));
  }
  EXPECT_EQ(chosen.size(), 4u);
}

// -- Rail mux ------------------------------------------------------------

TEST(RailMux, ResequencerRestoresOrderUnderReorder) {
  // Artificially reordered per-rail arrivals: the mux must release strict
  // 1, 2, 3, ... per origin regardless of the offer order, and one
  // origin's gap must not hold back another origin's stream.
  net::Resequencer<int> rs(2);
  std::vector<int> out;
  const auto release = [&out](int v) { out.push_back(v); };
  rs.offer(0, 3, 103, release);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rs.buffered(), 1u);
  rs.offer(1, 1, 201, release);  // other origin: in order, straight through
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 201);
  out.clear();
  rs.offer(0, 1, 101, release);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 101);
  out.clear();
  rs.offer(1, 3, 203, release);  // held next to origin 0's sequence 3
  rs.offer(0, 2, 102, release);  // closes the gap: releases 2 and the held 3
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 102);
  EXPECT_EQ(out[1], 103);
  EXPECT_EQ(rs.released(0), 3u);
  EXPECT_EQ(rs.released(1), 1u);
  EXPECT_EQ(rs.buffered(), 1u);  // origin 1's sequence 3 still waits
  out.clear();
  rs.offer(0, 6, 106, release);
  rs.offer(0, 5, 105, release);
  EXPECT_TRUE(out.empty());
  rs.offer(0, 4, 104, release);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], 106);
  out.clear();
  rs.offer(1, 2, 202, release);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1], 203);
  EXPECT_EQ(rs.buffered(), 0u);
}

TEST(RailMux, StripingIsRoundRobin) {
  net::RailScheduler sched(3);
  EXPECT_EQ(sched.pick(1), 0);
  EXPECT_EQ(sched.pick(2), 1);
  EXPECT_EQ(sched.pick(3), 2);
  EXPECT_EQ(sched.pick(4), 0);
}

// -- End-to-end fabric runs ----------------------------------------------
//
// Synthetic all-to-all bursts straight into a Fabric (the
// fault_injection_test harness, topology-parameterized): payloads carry the
// per-pair ordinal so exactly-once in-order delivery is checkable end to
// end, the full oracle suite rides along, and the delivery transcript is
// byte-comparable across executor configurations.

struct TopoRun {
  std::string transcript;  // every delivery, in pop order
  std::string violations;  // oracle report lines ("" == clean)
  std::uint64_t delivered = 0;
  bool in_order = true;
  double end_time = 0.0;
};

TopoRun drive_topology(const TopoConfig& tc, int nodes, int bursts,
                       int exec_groups, int exec_threads,
                       std::uint64_t perturb_seed = 0) {
  TopoRun out;
  sim::Simulation sim;
  // Shard layout is part of the logical schedule (one shard per node, as
  // Cluster configures it); the executor knobs must never change results.
  sim.configure_shards(nodes);
  sim.set_executor(exec_groups, exec_threads);
  if (perturb_seed != 0) {
    sim.set_perturbation(perturb_seed, sim::Perturbation::kAllClasses);
  }
  InvariantObserver obs;
  sim.set_invariant_observer(&obs);
  sim::NetConfig nc;
  nc.topo = tc;
  net::Fabric fabric(sim, nodes, nc);
  for (int b = 0; b < bursts; ++b) {
    for (int s = 0; s < nodes; ++s) {
      // Injections run in the source node's shard, like real senders.
      sim.schedule_on(sim.shard_for(s), sim::micros(2.0 * b),
                      [&fabric, nodes, s, b]() {
        for (int d = 0; d < nodes; ++d) {
          if (s == d) continue;
          // Mixed sizes: consecutive messages of a pair land on different
          // rails with very different serialization times, so the mux
          // actually has cross-rail skew to undo.
          net::Packet p(s, d, b % 3 == 0 ? 16384.0 : 128.0);
          p.set_header(std::uint64_t(b));
          fabric.send(std::move(p),
                      std::numeric_limits<sim::Rate>::infinity());
        }
      });
    }
  }
  sim.run();
  out.end_time = sim.now();
  std::ostringstream ts;
  for (int d = 0; d < nodes; ++d) {
    std::vector<std::uint64_t> last(static_cast<size_t>(nodes), 0);
    std::vector<bool> seen(static_cast<size_t>(nodes), false);
    while (auto p = fabric.rx(d).try_pop()) {
      ++out.delivered;
      const auto ord = p->header<std::uint64_t>();
      ts << p->src() << ">" << d << ":" << ord << "\n";
      const auto s = static_cast<size_t>(p->src());
      if (seen[s] && ord <= last[s]) out.in_order = false;
      seen[s] = true;
      last[s] = ord;
    }
  }
  out.transcript = ts.str();
  obs.finalize();
  for (const std::string& v : obs.violations()) out.violations += v + "\n";
  return out;
}

TEST(TopologyEndToEnd, FatTreeDeliversExactlyOnceInOrder) {
  TopoConfig tc = fat_tree(4);
  tc.rails = 2;
  TopoRun r = drive_topology(tc, 8, 40, /*groups=*/0, /*threads=*/1);
  EXPECT_EQ(r.delivered, 8u * 7u * 40u);
  EXPECT_TRUE(r.in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(TopologyEndToEnd, TorusDeliversExactlyOnceInOrder) {
  TopoRun r = drive_topology(torus(), 8, 40, 0, 1);
  EXPECT_EQ(r.delivered, 8u * 7u * 40u);
  EXPECT_TRUE(r.in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(TopologyEndToEnd, FlatMultiRailDeliversExactlyOnceInOrder) {
  TopoConfig tc;  // flat kind, but 2 rails activates the striping path
  tc.rails = 2;
  TopoRun r = drive_topology(tc, 4, 60, 0, 1);
  EXPECT_EQ(r.delivered, 4u * 3u * 60u);
  EXPECT_TRUE(r.in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(TopologyEndToEnd, FlatDefaultStaysInOrderUnderJitter) {
  // The paper's fabric — flat, one rail — is the zero-hop case of the same
  // path. Seeded link jitter reorders a pair's wire deliveries; the rail
  // mux must restore them.
  TopoRun r = drive_topology(TopoConfig{}, 8, 40, 0, 1,
                             /*perturb_seed=*/0x70707);
  EXPECT_EQ(r.delivered, 8u * 7u * 40u);
  EXPECT_TRUE(r.in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(TopologyEndToEnd, AdaptiveRoutingStaysInOrder) {
  TopoConfig tc = fat_tree(4);
  tc.rails = 2;
  tc.route = RouteMode::kAdaptive;
  // Seeded perturbation: adaptive selection draws from the kRoute stream
  // and jitter from kLinkJitter — the mux must still restore order.
  TopoRun r = drive_topology(tc, 8, 40, 0, 1, /*perturb_seed=*/0x70707);
  EXPECT_EQ(r.delivered, 8u * 7u * 40u);
  EXPECT_TRUE(r.in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(TopologyEndToEnd, ExecutorInvariance) {
  // Byte-identical delivery transcripts under the serial executor, the
  // 4-group/2-thread executor, and the one-group-per-shard max-parallel
  // executor — on a multi-hop multi-rail topology where cross-shard hop
  // events actually exercise the conservative windows.
  TopoConfig tc = fat_tree(4);
  tc.rails = 2;
  TopoRun serial = drive_topology(tc, 8, 30, 0, 1);
  TopoRun grouped = drive_topology(tc, 8, 30, 4, 2);
  TopoRun wide = drive_topology(tc, 8, 30, 0, 4);
  EXPECT_EQ(serial.transcript, grouped.transcript);
  EXPECT_EQ(serial.transcript, wide.transcript);
  EXPECT_EQ(serial.end_time, grouped.end_time);
  EXPECT_EQ(serial.end_time, wide.end_time);
  EXPECT_EQ(serial.violations, "");
  EXPECT_EQ(grouped.violations, "");
  EXPECT_EQ(wide.violations, "");
}

TEST(TopologyEndToEnd, TorusExecutorInvariance) {
  TopoRun serial = drive_topology(torus(), 8, 30, 0, 1);
  TopoRun par = drive_topology(torus(), 8, 30, 4, 2);
  EXPECT_EQ(serial.transcript, par.transcript);
  EXPECT_EQ(serial.end_time, par.end_time);
  EXPECT_EQ(par.violations, "");
}

// -- Mutation checks (docs/TESTING.md) -----------------------------------

TEST(TopologyMutation, DisabledResequencerFailsFifoOracle) {
  // Knock out the rail mux: mixed-size messages striped across 2 rails
  // arrive with cross-rail skew (a 16 kB packet serializes ~128x longer
  // than its 128 B successor on the other rail), so mux sequences reach
  // the mailbox out of order and the FIFO/non-overtaking oracle must fire.
  TopoConfig tc = fat_tree(4);
  tc.rails = 2;
  tc.resequence = false;
  TopoRun r = drive_topology(tc, 8, 40, 0, 1);
  EXPECT_NE(r.violations.find("fabric non-overtaking violated"),
            std::string::npos)
      << "resequencer mutation went undetected:\n" << r.violations;
  EXPECT_FALSE(r.in_order);  // visible end to end, not just to the oracle
}

TEST(TopologyMutation, DisabledResequencerOnFlatDefaultFailsFifoOracle) {
  // The same knock-out on the default flat single-rail fabric: only link
  // jitter reorders the wire here, and without the mux the reordering must
  // reach the mailbox and fire the FIFO/non-overtaking oracle.
  TopoConfig tc;
  tc.resequence = false;
  TopoRun r = drive_topology(tc, 8, 40, 0, 1, /*perturb_seed=*/0x70707);
  EXPECT_NE(r.violations.find("fabric non-overtaking violated"),
            std::string::npos)
      << "resequencer mutation went undetected:\n" << r.violations;
  EXPECT_FALSE(r.in_order);
}

// Latent-assumption audit (docs/TESTING.md): the torus fit near_cubic_dims
// intentionally overshoots (it pads non-cubic counts with hole routers), so
// it must never be used where a rank bijection is required — that is what
// exact_grid_dims is for. These regressions pin both contracts so one is
// not "simplified" into the other.
TEST(TopologyGridDims, ExactGridDimsIsABijectionForEveryCount) {
  for (int n = 1; n <= 64; ++n) {
    const std::array<int, 3> d = net::exact_grid_dims(n);
    EXPECT_EQ(d[0] * d[1] * d[2], n) << "n=" << n;      // exact, no padding
    EXPECT_TRUE(d[0] >= d[1] && d[1] >= d[2]) << "n=" << n;
    EXPECT_GE(d[2], 1) << "n=" << n;
  }
  // Primes degenerate to the 1-D chain; perfect cubes come out cubic.
  EXPECT_EQ(net::exact_grid_dims(13), (std::array<int, 3>{13, 1, 1}));
  EXPECT_EQ(net::exact_grid_dims(27), (std::array<int, 3>{3, 3, 3}));
  EXPECT_EQ(net::exact_grid_dims(24), (std::array<int, 3>{4, 3, 2}));
}

TEST(TopologyGridDims, NearCubicDimsOvershootsButStaysMinimal) {
  for (int n = 1; n <= 64; ++n) {
    const std::array<int, 3> d = net::near_cubic_dims(n);
    EXPECT_GE(d[0] * d[1] * d[2], n) << "n=" << n;  // covers every node
    // Minimality along the fitting order: shrinking the last-fit dimension
    // must fall below n (otherwise the torus wastes a whole router plane).
    EXPECT_LT(d[0] * d[1] * (d[2] - 1), n) << "n=" << n;
  }
  // The documented counterexample: 5 nodes pad to a 2 x 2 x 2 torus with
  // 3 hole routers — a rank grid built on this would lose 3 ranks.
  EXPECT_EQ(net::near_cubic_dims(5), (std::array<int, 3>{2, 2, 2}));
}

TEST(TopologyMutation, UncountedLinkCapacityFailsConservationOracle) {
  // Knock out shared-link bandwidth accounting: every packet pretends the
  // link is idle, so concurrent cross-leaf bursts overlap on the shared
  // uplinks/egress links and the capacity-conservation oracle must fire.
  TopoConfig tc = fat_tree(4);
  tc.resequence = true;
  tc.account_capacity = false;
  TopoRun r = drive_topology(tc, 8, 40, 0, 1);
  EXPECT_NE(r.violations.find("link capacity conservation violated"),
            std::string::npos)
      << "capacity mutation went undetected:\n" << r.violations;
}

}  // namespace
}  // namespace dcuda
