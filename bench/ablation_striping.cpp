// Ablation: multi-rail path striping vs a single NIC rail under congestion
// (net/rail.h, net/topology.h, docs/TOPOLOGY.md).
//
// Scenario: an 8-node two-level fat tree (arity 4, interior links at twice
// the NIC rate — the rail-optimized fabric shape) carrying bulk streams of
// 64 kB messages.
//
//  * pairwise — every node of leaf 0 streams to its counterpart on leaf 1.
//    A single rail leaves each flow injection-bound at the NIC rate while
//    the interior fabric has headroom; striping across 2 rails doubles the
//    injection bandwidth and the ECMP spread keeps the shared uplinks
//    below capacity. This is the gated metric: "striping_speedup" below
//    1.3x fails the run (the ablation_striping golden case).
//  * incast k — k senders converge on one receiver. The receiver's egress
//    link caps the aggregate, so the striping gain degrades from ~2x at
//    k=1 toward 1x once the hot spot saturates: the degradation curve
//    EXPERIMENTS.md tabulates.
//
// Output is a single JSON object on stdout; human-readable rows go to
// stderr. Simulated time is deterministic — one run per cell.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench/common.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace dcuda {
namespace {

constexpr int kNodes = 8;
constexpr double kMsgBytes = 64.0 * 1024.0;

net::TopoConfig rail_fabric(int rails) {
  net::TopoConfig tc;
  tc.kind = net::TopologyKind::kFatTree;
  tc.fat_tree_arity = 4;
  tc.rails = rails;
  // Rail-optimized interior: switch-to-switch links run at twice the NIC
  // rate, so a single rail is injection-bound and striping has headroom.
  tc.link_bandwidth = sim::gbs(12.0);
  return tc;
}

// Makespan of `msgs` 64 kB messages per sender, all injected at t=0.
// senders stream to (sender + 4) in pairwise mode; to node 4 in incast mode.
double makespan(int rails, int senders, bool incast, int msgs) {
  sim::Simulation sim;
  sim::NetConfig nc;
  nc.topo = rail_fabric(rails);
  net::Fabric fabric(sim, kNodes, nc);
  for (int s = 0; s < senders; ++s) {
    sim.schedule(0.0, [&fabric, s, incast, msgs]() {
      for (int i = 0; i < msgs; ++i) {
        fabric.send(net::Packet(s, incast ? 4 : s + 4, kMsgBytes),
                    std::numeric_limits<sim::Rate>::infinity());
      }
    });
  }
  sim.run();
  // Drain the mailboxes so the run's resources die cleanly.
  for (int d = 0; d < kNodes; ++d) {
    while (fabric.rx(d).try_pop()) {}
  }
  return sim.now();
}

}  // namespace
}  // namespace dcuda

int main() {
  using namespace dcuda;
  // Steady-state floor: very short streams are dominated by the multi-hop
  // pipeline fill, not by injection bandwidth.
  const int msgs = std::max(32, bench::iterations(64));
  std::fprintf(stderr,
               "# ablation_striping: rail striping vs single rail, fat tree "
               "arity 4, %d x 64 kB msgs/sender\n", msgs);

  const double pair1 = makespan(1, 4, /*incast=*/false, msgs);
  const double pair2 = makespan(2, 4, /*incast=*/false, msgs);
  const double striping_speedup = pair1 / pair2;
  std::fprintf(stderr, "pairwise   1 rail %8.1f us   2 rails %8.1f us   "
               "speedup %.2fx\n", pair1 * 1e6, pair2 * 1e6, striping_speedup);

  struct Cell { int fanin; double t1, t2; };
  Cell curve[] = {{1, 0, 0}, {2, 0, 0}, {4, 0, 0}};
  for (Cell& c : curve) {
    c.t1 = makespan(1, c.fanin, /*incast=*/true, msgs);
    c.t2 = makespan(2, c.fanin, /*incast=*/true, msgs);
    std::fprintf(stderr, "incast %d   1 rail %8.1f us   2 rails %8.1f us   "
                 "speedup %.2fx\n", c.fanin, c.t1 * 1e6, c.t2 * 1e6,
                 c.t1 / c.t2);
  }

  std::printf("{\n");
  std::printf("  \"schema\": \"dcuda-bench-net-v1\",\n");
  std::printf("  \"config\": {\"nodes\": %d, \"topology\": \"fattree\", "
              "\"arity\": 4, \"link_bandwidth_gbs\": 12.0, "
              "\"msg_bytes\": 65536, \"msgs_per_sender\": %d},\n",
              kNodes, msgs);
  std::printf("  \"pairwise\": {\"time_1rail_us\": %.3f, "
              "\"time_2rail_us\": %.3f},\n", pair1 * 1e6, pair2 * 1e6);
  std::printf("  \"incast\": [\n");
  for (size_t i = 0; i < 3; ++i) {
    std::printf("    {\"fanin\": %d, \"time_1rail_us\": %.3f, "
                "\"time_2rail_us\": %.3f, \"speedup\": %.3f}%s\n",
                curve[i].fanin, curve[i].t1 * 1e6, curve[i].t2 * 1e6,
                curve[i].t1 / curve[i].t2, i < 2 ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"striping_speedup\": %.3f\n}\n", striping_speedup);
  bench::require(striping_speedup >= 1.3,
                 "rail-striping congestion speedup " +
                     bench::fmt(striping_speedup) + "x < 1.3x");
  return 0;
}
