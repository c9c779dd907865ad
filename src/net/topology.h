#pragma once

// Interconnect topology model (docs/TOPOLOGY.md, ROADMAP item 2).
//
// The flat topology connects every node pair by a direct wire with no
// interior hops. A non-flat Topology expands each pair into a multi-hop path
// over *shared* links: a two-level fat tree with configurable arity (leaf and
// spine switches, ECMP across spines — the APEnet+ cluster style) or a 3-D
// torus with wraparound and dimension-order minimal routing. Every directed
// link serializes transmissions at the link bandwidth, so congestion — hot
// spots, incast, leaf uplink contention — emerges from the event schedule
// instead of being assumed away.
//
// All minimal routes for every (src, dst) pair are precomputed at
// construction (a flat topology shares one empty route among all pairs) and
// immutable afterwards: route objects are stable, so hop events hold plain
// pointers into the table and route selection is pure lookup + hash
// (net/router.h). Link traversal state lives in the Fabric, sharded by the
// owning switch (docs/PERF.md, "Parallel engine").

#include <array>
#include <cstdint>
#include <vector>

#include "sim/units.h"

namespace dcuda::net {

enum class TopologyKind : std::int32_t {
  kFlat = 0,     // direct wire per pair, no interior hops
  kFatTree = 1,  // two-level fat tree: leaf switches + spine switches
  kTorus3D = 2,  // 3-D torus, dimension-order minimal routing, wraparound
};

enum class RouteMode : std::int32_t {
  kEcmp = 0,      // seeded hash of (src, dst, message) over the candidates
  kAdaptive = 1,  // source-adaptive: ECMP hash base + per-pair rotation
};

// Topology/rail knobs, carried on sim::NetConfig (docs/API.md). The default
// — flat topology, one rail — is the paper's machine: the zero-hop,
// single-lane case of the same fabric path every other layout takes.
struct TopoConfig {
  TopologyKind kind = TopologyKind::kFlat;
  // Fat tree: nodes per leaf switch; also the spine count (= ECMP width).
  int fat_tree_arity = 4;
  // Torus dimensions; all zero = near-cubic auto fit to the node count.
  int torus_x = 0;
  int torus_y = 0;
  int torus_z = 0;
  // NIC rails per node. Each rail is an independent injection lane at the
  // full NIC bandwidth; messages stripe across rails per message and are
  // resequenced at the receiver's rail mux (net/rail.h).
  int rails = 1;
  RouteMode route = RouteMode::kEcmp;
  // Per-switch-hop latency. With a non-flat topology this replaces the flat
  // wire latency as the parallel engine's conservative lookahead.
  sim::Dur hop_latency = sim::micros(0.35);
  // Interior (switch-to-switch) link bandwidth; 0 inherits NetConfig::bandwidth.
  sim::Rate link_bandwidth = 0.0;
  // Salt folded into the ECMP hash — replaying a seed replays every route.
  std::uint64_t ecmp_seed = 0;
  // Mutation knobs (docs/TESTING.md): disabling the rail-mux resequencer
  // must fail the FIFO/non-overtaking oracle; disabling shared-link
  // capacity accounting must fail the link-capacity oracle.
  bool resequence = true;
  bool account_capacity = true;
};

// Near-cubic 3-D fit around `n` (x >= y >= z, x*y*z >= n): the smallest box
// that holds n nodes. The torus auto-dims use it; apps wanting a 3-D rank
// grid can share the same shape heuristic (docs/TOPOLOGY.md).
std::array<int, 3> near_cubic_dims(int n);

// Exact near-cubic factorization (x >= y >= z, x*y*z == n): divisor-based,
// so a bijective cell <-> rank grid exists. Prime n degenerates to n x 1 x 1
// — the 1-D decomposition as a special case of the 3-D one.
std::array<int, 3> exact_grid_dims(int n);

inline const char* topology_name(TopologyKind k) {
  switch (k) {
    case TopologyKind::kFatTree: return "fattree";
    case TopologyKind::kTorus3D: return "torus";
    default: return "flat";
  }
}

// One precomputed minimal route: the interior links in traversal order and
// the switches they depart from (same length; links[i] leaves switches[i]).
// The NIC injection lane (node -> first switch) is not a route link — it is
// the per-rail transmit lane — and the final link lands at the destination
// node (fat tree) or its co-located torus router.
struct Route {
  std::vector<int> links;
  std::vector<int> switches;
  int hops() const { return static_cast<int>(links.size()); }
};

class Topology {
 public:
  Topology(int num_nodes, const TopoConfig& cfg);

  const TopoConfig& config() const { return cfg_; }
  TopologyKind kind() const { return cfg_.kind; }
  int num_nodes() const { return num_nodes_; }
  int num_switches() const { return num_switches_; }
  int num_links() const { return num_links_; }

  // All equal-cost minimal routes for the pair, >= 1 entry. src == dst (and
  // every flat pair) yields a single empty route: no interior hops.
  const std::vector<Route>& paths(int src, int dst) const {
    if (paths_.empty()) return direct_;
    return paths_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(num_nodes_) +
                  static_cast<std::size_t>(dst)];
  }

  // Node whose shard owns the link's upstream switch: all traversal state of
  // the link is touched only from that node's shard.
  int link_owner(int link) const {
    return link_owner_[static_cast<std::size_t>(link)];
  }

  // -- Fat-tree accessors (conformance tests) ---------------------------
  int leaf_of(int node) const;
  int num_leaves() const { return num_leaves_; }
  int num_spines() const { return num_spines_; }
  // Which switch a fat-tree link departs from / arrives at (arrival switch
  // is -1 for a leaf-to-node egress link).
  int link_from(int link) const { return link_from_[static_cast<std::size_t>(link)]; }
  int link_to(int link) const { return link_to_[static_cast<std::size_t>(link)]; }

  // -- Torus accessors ---------------------------------------------------
  std::array<int, 3> torus_dims() const { return {dims_[0], dims_[1], dims_[2]}; }
  std::array<int, 3> torus_coords(int node) const;
  // Minimal hop distance between two nodes on the torus (with wraparound).
  int torus_distance(int a, int b) const;

 private:
  void build_fat_tree();
  void build_torus();
  int add_link(int from_switch, int to_switch);

  TopoConfig cfg_;
  int num_nodes_ = 0;
  int num_switches_ = 0;
  int num_links_ = 0;
  int num_leaves_ = 0;
  int num_spines_ = 0;
  int dims_[3] = {1, 1, 1};
  std::vector<int> link_from_;   // upstream switch per link
  std::vector<int> link_to_;     // downstream switch per link (-1 = node egress)
  std::vector<int> link_owner_;  // owning node (shard) per link
  // [src * num_nodes + dst]; empty on a flat topology, whose pairs all
  // share the one empty route in direct_.
  std::vector<std::vector<Route>> paths_;
  std::vector<Route> direct_ = std::vector<Route>(1);
};

}  // namespace dcuda::net
