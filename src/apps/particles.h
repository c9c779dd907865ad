#pragma once

// Mini-application 1 (§IV-C): 2-D particle simulation with short-range
// repulsive forces and simplified Verlet integration.
//
// The wide rectangular domain is decomposed into cells aligned along the
// wide edge (x); the cell width equals the cutoff distance, so forces act
// only between particles of the same or neighboring cells. Particles are
// stored as a structure of arrays with fixed-size, non-overlapping index
// ranges per cell (4x slack) and per-cell occupancy counters.
//
// Main loop (paper order): 1) halo cell exchange, 2) force computation and
// position update, 3) sorting out particles that moved to a neighbor cell,
// 4) communication of particles that moved to a neighbor rank, 5)
// integration of arrivals. The chain of cells is the N x 1 x 1 case of the
// cell-list core shared with the 3-D DPD app (cell_exchange.h), which runs
// the exchanges of both variants; this file holds the physics.

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "sim/proc.h"

namespace dcuda::apps::particles {

struct Config {
  int cells_per_node = 208;       // one cell per rank at the paper's launch
  int particles_per_cell = 100;   // initial occupancy
  int capacity_factor = 4;        // storage slack (paper: 4x)
  int iterations = 100;
  // Cell geometry and force range. The paper requires cell_width >= cutoff
  // and, for the Fig. 9 measurements, reduces the cutoff well below the
  // cell width so that few particles interact (memory-bound scan).
  double cell_width = 1.0;
  double cutoff = 1.0;
  double dt = 0.01;
  double force_k = 5.0;
  double domain_height = 1.0;
  std::uint64_t seed = 42;
  bool compute = true;            // runtime switches
  bool exchange = true;
  int capacity() const { return particles_per_cell * capacity_factor; }
};

struct Result {
  sim::Dur elapsed = 0.0;
  std::int64_t total_particles = 0;  // conservation check
  double checksum = 0.0;             // sum of |x|+|y| over all particles
  double momentum_x = 0.0;
  double momentum_y = 0.0;
};

// Serial reference simulation on the global domain.
Result reference(const Config& cfg, int num_nodes);

Result run_dcuda(Cluster& cluster, const Config& cfg);
Result run_mpi_cuda(Cluster& cluster, const Config& cfg);

}  // namespace dcuda::apps::particles
