#include "net/router.h"

namespace dcuda::net {

Router::Router(const Topology& topo) : topo_(&topo) {
  // A flat topology offers one route per pair, so it never rotates.
  if (topo.config().route == RouteMode::kAdaptive &&
      topo.kind() != TopologyKind::kFlat) {
    rotation_.resize(static_cast<std::size_t>(topo.num_nodes()) *
                     static_cast<std::size_t>(topo.num_nodes()));
  }
}

int Router::select(int src, int dst, std::uint64_t mux_seq,
                   sim::Perturbation* pert) {
  const int n = static_cast<int>(topo_->paths(src, dst).size());
  if (n <= 1) return 0;
  if (topo_->config().route != RouteMode::kAdaptive) {
    return static_cast<int>(
        ecmp_hash(topo_->config().ecmp_seed, src, dst, mux_seq) %
        static_cast<std::uint64_t>(n));
  }
  // Adaptive: rotate from a fixed per-pair hash base (message 0) so a
  // pair's burst covers every candidate exactly once per n messages —
  // hash-collision-proof round-robin, offset per pair to avoid systematic
  // alignment across pairs. A seeded kRoute perturbation stream replaces
  // the rotation to explore other (replayable) spreads.
  const std::uint64_t base = ecmp_hash(topo_->config().ecmp_seed, src, dst, 0);
  std::uint64_t rot;
  if (pert != nullptr && pert->has(sim::Perturbation::kRoute)) {
    rot = static_cast<std::uint64_t>(pert->route_pick(n));
  } else {
    std::uint64_t& r = rotation_[static_cast<std::size_t>(src) *
                                     static_cast<std::size_t>(topo_->num_nodes()) +
                                 static_cast<std::size_t>(dst)];
    rot = r++;
  }
  return static_cast<int>((base + rot) % static_cast<std::uint64_t>(n));
}

}  // namespace dcuda::net
