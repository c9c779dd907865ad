#pragma once

// Deterministic route selection over a Topology's equal-cost candidates
// (docs/TOPOLOGY.md).
//
// ECMP mode hashes (salt, src, dst, message sequence) through sim::mix64 —
// a pure function, so a route choice replays across runs, executors, and
// process restarts with no stream state at all. Adaptive mode spreads a
// pair's consecutive messages across all candidates by rotating from the
// ECMP hash base using sender-local history only (no remote link state:
// reading another shard's queues during a parallel window would race).
// When a sim::Perturbation carrying the kRoute class is installed, adaptive
// selection draws its rotation from that seeded stream instead, which lets
// the fuzz harness explore alternative — still bit-replayable — path
// schedules.

#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "sim/perturb.h"
#include "sim/random.h"

namespace dcuda::net {

class Router {
 public:
  explicit Router(const Topology& topo);

  // Index into topo.paths(src, dst) for message `mux_seq` of the pair.
  // Sender-side only: mutates per-pair rotation state in adaptive mode, so
  // it must run in the source node's shard.
  int select(int src, int dst, std::uint64_t mux_seq, sim::Perturbation* pert);

  static std::uint64_t ecmp_hash(std::uint64_t salt, int src, int dst,
                                 std::uint64_t msg) {
    return sim::mix64(
        salt ^ (static_cast<std::uint64_t>(src) * 0x9e3779b97f4a7c15ull) ^
        (static_cast<std::uint64_t>(dst) * 0xc2b2ae3d27d4eb4full) ^
        (msg * 0x165667b19e3779f9ull));
  }

 private:
  const Topology* topo_;
  // Adaptive rotation per (src, dst) pair — sender-local, touched only from
  // the source shard.
  std::vector<std::uint64_t> rotation_;
};

}  // namespace dcuda::net
