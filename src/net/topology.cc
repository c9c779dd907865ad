#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace dcuda::net {

Topology::Topology(int num_nodes, const TopoConfig& cfg)
    : cfg_(cfg), num_nodes_(num_nodes) {
  assert(num_nodes_ >= 1);
  assert(cfg_.fat_tree_arity >= 1);
  assert(cfg_.rails >= 1);
  if (cfg_.kind != TopologyKind::kFlat) {
    paths_.resize(static_cast<std::size_t>(num_nodes_) *
                  static_cast<std::size_t>(num_nodes_));
  }
  switch (cfg_.kind) {
    case TopologyKind::kFatTree: build_fat_tree(); break;
    case TopologyKind::kTorus3D: build_torus(); break;
    default: break;  // flat: every pair shares direct_
  }
  // Every pair has at least one route (possibly empty = direct wire), and
  // the engine needs a positive hop latency to bound its windows.
  assert(num_links_ == 0 || cfg_.hop_latency > 0.0);
}

int Topology::add_link(int from_switch, int to_switch) {
  link_from_.push_back(from_switch);
  link_to_.push_back(to_switch);
  // A link's traversal state is owned by the shard of its upstream switch;
  // switches hash onto node shards round-robin. Torus routers are co-located
  // with their node when one exists at the position.
  link_owner_.push_back(from_switch % num_nodes_);
  return num_links_++;
}

std::array<int, 3> near_cubic_dims(int n) {
  int x = 1, y = 1, z = 1;
  while (x * x * x < n) ++x;
  while (x * y * y < n) ++y;
  while (x * y * z < n) ++z;
  return {x, y, z};
}

std::array<int, 3> exact_grid_dims(int n) {
  assert(n >= 1);
  // z: largest divisor of n not above the cube root; then y: largest divisor
  // of n/z not above the square root of the remainder.
  int z = 1;
  for (int d = 1; d * d * d <= n; ++d) {
    if (n % d == 0) z = d;
  }
  const int rest = n / z;
  int y = 1;
  for (int d = 1; d * d <= rest; ++d) {
    if (rest % d == 0) y = d;
  }
  // The greedy picks can come out unordered (n=10: z=2 but y=1); restore the
  // documented x >= y >= z orientation — any axis permutation is the same grid.
  std::array<int, 3> dims = {rest / y, y, z};
  std::sort(dims.begin(), dims.end(), std::greater<int>());
  return dims;
}

int Topology::leaf_of(int node) const {
  return cfg_.kind == TopologyKind::kFatTree ? node / cfg_.fat_tree_arity : 0;
}

void Topology::build_fat_tree() {
  const int a = cfg_.fat_tree_arity;
  num_leaves_ = (num_nodes_ + a - 1) / a;
  // One spine per unit of arity gives full bisection: a leaf's `a` nodes
  // share `a` uplinks. A single-leaf tree needs no spines at all.
  num_spines_ = num_leaves_ > 1 ? a : 0;
  num_switches_ = num_leaves_ + num_spines_;

  // Link table: leaf->spine uplinks, spine->leaf downlinks, leaf->node
  // egress links, in that order so ids are dense and reconstructible.
  std::vector<std::vector<int>> up(static_cast<std::size_t>(num_leaves_));
  std::vector<std::vector<int>> down(static_cast<std::size_t>(num_spines_));
  for (int l = 0; l < num_leaves_; ++l) {
    up[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(num_spines_));
    for (int s = 0; s < num_spines_; ++s) {
      up[static_cast<std::size_t>(l)][static_cast<std::size_t>(s)] =
          add_link(l, num_leaves_ + s);
    }
  }
  for (int s = 0; s < num_spines_; ++s) {
    down[static_cast<std::size_t>(s)].resize(static_cast<std::size_t>(num_leaves_));
    for (int l = 0; l < num_leaves_; ++l) {
      down[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)] =
          add_link(num_leaves_ + s, l);
    }
  }
  std::vector<int> egress(static_cast<std::size_t>(num_nodes_));
  for (int n = 0; n < num_nodes_; ++n) {
    egress[static_cast<std::size_t>(n)] = add_link(leaf_of(n), -1);
  }

  for (int src = 0; src < num_nodes_; ++src) {
    for (int dst = 0; dst < num_nodes_; ++dst) {
      std::vector<Route>& out =
          paths_[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_nodes_) +
                 static_cast<std::size_t>(dst)];
      if (src == dst) {
        out.resize(1);  // loopback: no interior hops
        continue;
      }
      const int ls = leaf_of(src);
      const int ld = leaf_of(dst);
      if (ls == ld) {
        // Same leaf: injection lane up to the leaf, one egress hop down.
        Route r;
        r.links = {egress[static_cast<std::size_t>(dst)]};
        r.switches = {ls};
        out.push_back(std::move(r));
        continue;
      }
      // Cross-leaf up/down: one equal-cost candidate per spine.
      for (int s = 0; s < num_spines_; ++s) {
        Route r;
        r.links = {up[static_cast<std::size_t>(ls)][static_cast<std::size_t>(s)],
                   down[static_cast<std::size_t>(s)][static_cast<std::size_t>(ld)],
                   egress[static_cast<std::size_t>(dst)]};
        r.switches = {ls, num_leaves_ + s, ld};
        out.push_back(std::move(r));
      }
    }
  }
}

std::array<int, 3> Topology::torus_coords(int node) const {
  const int yz = dims_[1] * dims_[2];
  return {node / yz, (node / dims_[2]) % dims_[1], node % dims_[2]};
}

int Topology::torus_distance(int a, int b) const {
  const std::array<int, 3> ca = torus_coords(a);
  const std::array<int, 3> cb = torus_coords(b);
  int d = 0;
  for (int i = 0; i < 3; ++i) {
    const int fwd = ((cb[static_cast<std::size_t>(i)] -
                      ca[static_cast<std::size_t>(i)]) % dims_[i] + dims_[i]) %
                    dims_[i];
    d += std::min(fwd, dims_[i] - fwd);
  }
  return d;
}

void Topology::build_torus() {
  // Fit the requested (or near-cubic auto) dimensions around the node count.
  dims_[0] = cfg_.torus_x;
  dims_[1] = cfg_.torus_y;
  dims_[2] = cfg_.torus_z;
  if (dims_[0] <= 0 || dims_[1] <= 0 || dims_[2] <= 0) {
    const std::array<int, 3> fit = near_cubic_dims(num_nodes_);
    dims_[0] = fit[0];
    dims_[1] = fit[1];
    dims_[2] = fit[2];
  }
  assert(dims_[0] * dims_[1] * dims_[2] >= num_nodes_);
  const int routers = dims_[0] * dims_[1] * dims_[2];
  num_switches_ = routers;

  // Directed neighbor links per (router, dimension, direction). Dimensions
  // of extent 1 have no movement and no links.
  const auto flatten = [&](int cx, int cy, int cz) {
    return (cx * dims_[1] + cy) * dims_[2] + cz;
  };
  std::vector<std::array<int, 6>> hop_link(static_cast<std::size_t>(routers),
                                           {-1, -1, -1, -1, -1, -1});
  for (int r = 0; r < routers; ++r) {
    const int yz = dims_[1] * dims_[2];
    const std::array<int, 3> c = {r / yz, (r / dims_[2]) % dims_[1],
                                  r % dims_[2]};
    for (int d = 0; d < 3; ++d) {
      if (dims_[d] <= 1) continue;
      for (int s = 0; s < 2; ++s) {  // 0 = +1 step, 1 = -1 step
        std::array<int, 3> n = c;
        const std::size_t di = static_cast<std::size_t>(d);
        n[di] = ((n[di] + (s == 0 ? 1 : -1)) % dims_[d] + dims_[d]) % dims_[d];
        const int to = flatten(n[0], n[1], n[2]);
        hop_link[static_cast<std::size_t>(r)][static_cast<std::size_t>(2 * d + s)] =
            add_link(r, to);
      }
    }
  }

  // Minimal dimension-order routes: every permutation of the dimensions
  // that produces a distinct link sequence is an equal-cost candidate.
  static constexpr int kPerms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                       {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (int src = 0; src < num_nodes_; ++src) {
    for (int dst = 0; dst < num_nodes_; ++dst) {
      std::vector<Route>& out =
          paths_[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_nodes_) +
                 static_cast<std::size_t>(dst)];
      if (src == dst) {
        out.resize(1);
        continue;
      }
      const std::array<int, 3> cd = torus_coords(dst);
      for (const auto& perm : kPerms) {
        Route r;
        std::array<int, 3> cur = torus_coords(src);
        for (int k = 0; k < 3; ++k) {
          const int d = perm[k];
          const std::size_t di = static_cast<std::size_t>(d);
          const int fwd = ((cd[di] - cur[di]) % dims_[d] + dims_[d]) % dims_[d];
          if (fwd == 0) continue;
          // Wraparound-aware minimal direction; ties go forward.
          const int step = fwd <= dims_[d] - fwd ? 1 : -1;
          const int steps = std::min(fwd, dims_[d] - fwd);
          for (int i = 0; i < steps; ++i) {
            const int here = flatten(cur[0], cur[1], cur[2]);
            r.switches.push_back(here);
            r.links.push_back(
                hop_link[static_cast<std::size_t>(here)]
                        [static_cast<std::size_t>(2 * d + (step > 0 ? 0 : 1))]);
            cur[di] = ((cur[di] + step) % dims_[d] + dims_[d]) % dims_[d];
          }
        }
        assert(flatten(cur[0], cur[1], cur[2]) == dst);
        const bool dup = std::any_of(
            out.begin(), out.end(),
            [&](const Route& have) { return have.links == r.links; });
        if (!dup) out.push_back(std::move(r));
      }
    }
  }
}

}  // namespace dcuda::net
