#pragma once

// 3-D short-range DPD-style particle application.
//
// The cubic domain is decomposed into a near-cubic 3-D grid of cells, one
// cell per rank (net::exact_grid_dims fits the grid around nodes x
// ranks_per_device; a prime rank count degenerates to the 1-D N x 1 x 1
// case). The cell edge equals the cutoff radius, so forces act only between
// particles of the same or one of the 26 surrounding cells. The grid, the
// slot storage and both variants' exchanges come from the cell-list core
// (cell_exchange.h) shared with the 2-D particle app; this file holds the
// physics. Per iteration:
//   1) Halo exchange: for every active direction, particles within the
//      cutoff of the shared face/edge/corner are packed into that
//      direction's send slot (positions + velocities — the dissipative force
//      needs relative velocities) and shipped as one put plus one notified
//      count put — 26 small messages per rank, the workload the
//      eager-aggregation path (sim::RmaConfig) batches.
//   2) DPD force computation (conservative soft repulsion + deterministic
//      dissipative drag; the stochastic term is omitted so every variant is
//      bitwise reproducible) and Euler position update, reflecting walls.
//   3) Sort-out: movers leave into one of 26 per-direction outboxes
//      (diagonal moves go directly to the diagonal neighbor).
//   4) Migration into the neighbors' inboxes; 5) arrival integration in
//      ascending direction order.
// Both variants call the same physics in the same floating-point order, so
// results are bitwise comparable with each other and with the serial
// reference on the global domain.
//
// Density scenarios: kUniform fills every cell identically; kSkewed
// concentrates the same particle total into a Gaussian blob (largest-
// remainder rounding keeps the count decomposition-invariant) and gives
// every particle a coherent drift, so the dense region marches across the
// rank grid — the dynamic-load-imbalance regime of Fig. 9, now in 3-D.
//
// Rebalance mode (stretch): blocks adopt overloaded neighbours' force work.
// Every rank already learns its 26 neighbours' particle counts from the
// halo count puts; a rank above the neighbourhood average offloads the
// excess share of its pair-scan *cost* to its underloaded neighbours via
// per-direction work tickets (one more small notified put per direction —
// eager-path food). Adoption is modeled at the cost layer: the helper block
// charges the adopted flops/bytes against its own SM, the overloaded block
// charges only the kept share. Particle data never moves (the halo copies
// already gave the helper the positions), so physics results are bitwise
// identical with rebalance on or off — only the schedule changes.

#include <array>
#include <cstdint>
#include <vector>

#include "apps/cell_exchange.h"
#include "cluster/cluster.h"
#include "sim/proc.h"

namespace dcuda::apps::dpd3d {

// The 27-direction geometry lives in the shared cell-list core.
using cells::dir_offset;
using cells::Grid;
using cells::kDirs;
using cells::kSelf;
using cells::opposite;

enum class Density : std::int32_t {
  kUniform = 0,  // every cell starts with particles_per_cell particles
  kSkewed = 1,   // same total, concentrated in a drifting Gaussian blob
};

struct Config {
  int cells_per_node = 8;        // one cell per rank (= ranks_per_device)
  int particles_per_cell = 24;   // average initial occupancy
  int capacity_factor = 6;       // per-cell storage slack (skew needs > 4x)
  int iterations = 20;
  // Explicit grid dimensions; all zero = exact near-cubic auto fit around
  // nodes * cells_per_node (net::exact_grid_dims). Degenerate grids
  // (1 x 1 x N, 2 x 2 x 2, ...) are first-class.
  int grid_x = 0;
  int grid_y = 0;
  int grid_z = 0;
  // Cell geometry and force model. cell_width must be >= cutoff so the
  // 27-cell neighbourhood covers every interacting pair.
  double cell_width = 1.0;
  double cutoff = 1.0;
  double dt = 0.01;
  double force_a = 4.0;     // conservative DPD repulsion strength
  double force_gamma = 1.5; // deterministic dissipative drag strength
  // Density scenario (docs/FIGURES.md "fig_dpd3d").
  Density density = Density::kUniform;
  double skew_sigma = 0.9;   // blob radius in cells
  double skew_drift = 0.35;  // coherent drift speed (cells per time unit)
  std::uint64_t seed = 42;
  // Work-adoption rebalance (dCUDA variant only; needs exchange on).
  bool rebalance = false;
  double rebalance_trigger = 1.25;  // offload above trigger * neighbourhood avg
  // Runtime switches (§IV-B methodology).
  bool compute = true;
  bool exchange = true;
  // Records the per-iteration pair-scan imbalance curve into
  // Result::iter_imbalance (max over ranks / mean over ranks).
  bool record_load = false;
  // In-tree mutation knob (docs/TESTING.md): drops the last record from
  // every non-empty migration send buffer, which must fire the
  // particle-conservation oracle in tests and fuzz lanes.
  bool break_compaction = false;
  int capacity() const { return particles_per_cell * capacity_factor; }
};

struct Result {
  sim::Dur elapsed = 0.0;
  std::int64_t total_particles = 0;  // conservation: must equal the initial total
  double checksum = 0.0;             // sum of |x|+|y|+|z| over all particles
  double momentum_x = 0.0;
  double momentum_y = 0.0;
  double momentum_z = 0.0;
  std::int32_t max_cell_count = 0;   // peak final occupancy (skew indicator)
  // Halo-oracle counters (both parallel variants and the reference): every
  // received halo record is
  // checked to lie inside the sender's cell box and within the cutoff band
  // of the receiver's box; violations count geometry breaches, the total is
  // the completeness side (tests compare it against the expected pure-
  // function count).
  std::int64_t halo_received_total = 0;
  std::int64_t halo_violations = 0;
  std::int64_t work_tickets = 0;     // rebalance: offloaded scan batches
  std::vector<double> iter_imbalance;  // record_load: max/mean scans per iter
};

// Grid for a cluster geometry (explicit Config dims or exact near-cubic
// fit). Throws dcuda::ConfigError unless the grid is a bijection onto
// nodes * cells_per_node ranks.
Grid make_grid(const Config& cfg, int num_nodes);

// Initial particle count of global cell `cell` (pure, decomposition
// invariant; kSkewed uses largest-remainder rounding so the global total is
// exactly cells * particles_per_cell).
int initial_count(const Config& cfg, const Grid& grid, int cell);

// Deterministic initial particles of one cell, 6 doubles per record
// (x, y, z, vx, vy, vz) — the seeding every variant starts from, exposed so
// tests can compute halo-completeness expectations from first principles.
std::vector<std::array<double, 6>> initial_particles(const Config& cfg,
                                                     const Grid& grid, int cell);

// True when a particle at (x, y, z) inside `cell` must be shipped to the
// neighbor in direction `dir`: within the cutoff of the shared face along
// every axis the direction offsets (the halo-oracle predicate).
bool ship_to_dir(const Config& cfg, const Grid& grid, int cell, int dir,
                 double x, double y, double z);

// Serial reference simulation on the global domain.
Result reference(const Config& cfg, int num_nodes);

Result run_dcuda(Cluster& cluster, const Config& cfg);
Result run_mpi_cuda(Cluster& cluster, const Config& cfg);

}  // namespace dcuda::apps::dpd3d
