// Test battery for the 3-D DPD application (docs/TESTING.md, label `dpd3d`):
// 27-direction dir2rank geometry incl. degenerate grids, the halo
// correctness oracle (every particle within the cutoff of a face/edge/corner
// is seen by exactly the right neighbour), particle conservation across
// migration, bitwise dCUDA / MPI-CUDA / reference parity on uniform and
// skewed densities, rebalance and eager-path schedule-only invariance, and
// the in-tree break_compaction mutation check.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "apps/dpd3d.h"
#include "sim/config.h"

namespace dcuda::apps::dpd3d {
namespace {

Config tiny_config(int cells_per_node) {
  Config cfg;
  cfg.cells_per_node = cells_per_node;
  cfg.particles_per_cell = 12;
  cfg.iterations = 10;
  cfg.dt = 0.02;
  return cfg;
}

Config skew_config(int cells_per_node) {
  Config cfg = tiny_config(cells_per_node);
  cfg.density = Density::kSkewed;
  cfg.skew_drift = 1.0;
  return cfg;
}

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

// ---------------------------------------------------------------- geometry

TEST(Dpd3dGrid, DirIndexSpaceRoundTrips) {
  for (int d = 0; d < kDirs; ++d) {
    const std::array<int, 3> o = dir_offset(d);
    EXPECT_EQ((o[0] + 1) + 3 * (o[1] + 1) + 9 * (o[2] + 1), d);
    const std::array<int, 3> op = dir_offset(opposite(d));
    EXPECT_EQ(op[0], -o[0]);
    EXPECT_EQ(op[1], -o[1]);
    EXPECT_EQ(op[2], -o[2]);
  }
  EXPECT_EQ(dir_offset(kSelf), (std::array<int, 3>{0, 0, 0}));
  EXPECT_EQ(opposite(kSelf), kSelf);
}

// Compact slot map: the directions some cell can reach get slots
// 0 .. slots()-1 in ascending direction order, the rest -1, and a direction
// and its opposite sit mirrored (slot(opposite(d)) == slots() - 1 - slot(d)).
void sweep_slots(const Grid& g) {
  int next = 0;
  for (int d = 0; d < kDirs; ++d) {
    bool reachable = false;
    for (int c = 0; c < g.cells(); ++c) {
      reachable = reachable || (d != kSelf && g.dir2cell(c, d) >= 0);
    }
    EXPECT_EQ(g.slot(d), reachable ? next : -1) << "dir " << d;
    if (!reachable) continue;
    ++next;
    EXPECT_EQ(g.slot(opposite(d)), g.slots() - 1 - g.slot(d)) << "dir " << d;
    EXPECT_EQ(opposite(opposite(d)), d);
  }
  EXPECT_EQ(g.slots(), next);
}

// Exhaustive dir2rank sweep against first-principles coordinate math, on a
// bulk 3-D grid and on the degenerate 1 x 1 x N and 2 x 2 x 2 shapes.
void sweep_grid(const Grid& g) {
  for (int c = 0; c < g.cells(); ++c) {
    const std::array<int, 3> cc = g.coords(c);
    EXPECT_EQ(g.cell_at(cc[0], cc[1], cc[2]), c);
    const std::array<int, kDirs> table = g.dir2rank(c);
    int active = 0;
    for (int d = 0; d < kDirs; ++d) {
      const std::array<int, 3> o = dir_offset(d);
      const int nx = cc[0] + o[0], ny = cc[1] + o[1], nz = cc[2] + o[2];
      const bool inside = nx >= 0 && nx < g.gx && ny >= 0 && ny < g.gy &&
                          nz >= 0 && nz < g.gz;
      const int expect = inside ? g.cell_at(nx, ny, nz) : -1;
      EXPECT_EQ(table[d], expect) << "cell " << c << " dir " << d;
      EXPECT_EQ(g.dir2cell(c, d), expect);
      if (inside && d != kSelf) {
        // Neighbourhood is symmetric: my neighbour sees me back.
        EXPECT_EQ(g.dir2cell(table[d], opposite(d)), c);
        ++active;
      }
    }
    const std::vector<int> act = g.active_dirs(c);
    EXPECT_EQ(static_cast<int>(act.size()), active);
    for (int d : act) {
      EXPECT_NE(d, kSelf);
      EXPECT_GE(g.dir2cell(c, d), 0);
    }
    // Active directions come ascending and every one owns a slot.
    EXPECT_TRUE(std::is_sorted(act.begin(), act.end()));
    for (int d : act) EXPECT_GE(g.slot(d), 0) << "cell " << c << " dir " << d;
  }
  sweep_slots(g);
}

TEST(Dpd3dGrid, Dir2RankSweepBulk3D) {
  Config cfg = tiny_config(9);
  const Grid g = make_grid(cfg, 3);  // 27 ranks -> 3 x 3 x 3
  EXPECT_EQ(g.gx * g.gy * g.gz, 27);
  sweep_grid(g);
  // The interior cell of a 3 x 3 x 3 grid has all 26 neighbours.
  const int center = g.cell_at(1, 1, 1);
  EXPECT_EQ(g.active_dirs(center).size(), 26u);
  EXPECT_EQ(g.slots(), 26);
}

TEST(Dpd3dGrid, Dir2RankSweepDegenerate1D) {
  // A prime rank count degenerates to N x 1 x 1 ...
  Config cfg = tiny_config(5);
  const Grid a = make_grid(cfg, 1);
  EXPECT_EQ((std::array<int, 3>{a.gx, a.gy, a.gz}), (std::array<int, 3>{5, 1, 1}));
  sweep_grid(a);
  // ... and explicit dims force the 1 x 1 x N orientation of the same line.
  Config cfg2 = tiny_config(5);
  cfg2.grid_x = 1;
  cfg2.grid_y = 1;
  cfg2.grid_z = 5;
  const Grid b = make_grid(cfg2, 1);
  sweep_grid(b);
  // End cells of a line see one neighbour, interior cells two.
  EXPECT_EQ(b.active_dirs(0).size(), 1u);
  EXPECT_EQ(b.active_dirs(2).size(), 2u);
  // The particle app's N x 1 x 1 chain: two slots, left (12) then right (14).
  for (const Grid& chain : {a, Grid{6, 1, 1}}) {
    sweep_grid(chain);
    EXPECT_EQ(chain.slots(), 2);
    EXPECT_EQ(chain.slot(12), 0);
    EXPECT_EQ(chain.slot(14), 1);
    EXPECT_EQ(chain.active_dirs(0), std::vector<int>{14});
    EXPECT_EQ(chain.active_dirs(2), (std::vector<int>{12, 14}));
  }
  EXPECT_EQ(b.slots(), 2);
}

TEST(Dpd3dGrid, Dir2RankSweep2x2x2) {
  Config cfg = tiny_config(8);
  const Grid g = make_grid(cfg, 1);
  EXPECT_EQ((std::array<int, 3>{g.gx, g.gy, g.gz}), (std::array<int, 3>{2, 2, 2}));
  sweep_grid(g);
  // Every cell of a 2 x 2 x 2 grid is a corner: exactly 7 active neighbours.
  for (int c = 0; c < 8; ++c) EXPECT_EQ(g.active_dirs(c).size(), 7u);
  // ... yet the grid reaches all 26 directions, so every cell has 26 slots.
  EXPECT_EQ(g.slots(), 26);
}

TEST(Dpd3dGrid, SingleCellDomainHasNoNeighbours) {
  // Latent-assumption audit (docs/TESTING.md): the 1 x 1 x 1 grid has an
  // empty active-neighbour list — zero halo sends, zero waits, zero
  // migration targets. Walls reflect everything, so the cell keeps its
  // particles and all three variants still agree bitwise.
  Config cfg = tiny_config(1);
  const Grid g = make_grid(cfg, 1);
  EXPECT_EQ(g.cells(), 1);
  EXPECT_TRUE(g.active_dirs(0).empty());
  for (int d = 0; d < kDirs; ++d) {
    EXPECT_EQ(g.dir2rank(0)[d], d == kSelf ? 0 : -1);
  }
  const Result ref = reference(cfg, 1);
  EXPECT_EQ(ref.total_particles, cfg.particles_per_cell);
  EXPECT_EQ(ref.halo_received_total, 0);
  Cluster c1({.machine = machine(1), .ranks_per_device = 1});
  const Result dc = run_dcuda(c1, cfg);
  Cluster c2({.machine = machine(1), .ranks_per_device = 1});
  const Result mc = run_mpi_cuda(c2, cfg);
  EXPECT_EQ(dc.total_particles, ref.total_particles);
  EXPECT_EQ(mc.total_particles, ref.total_particles);
  EXPECT_DOUBLE_EQ(dc.checksum, ref.checksum);
  EXPECT_DOUBLE_EQ(mc.checksum, ref.checksum);
}

TEST(Dpd3dGrid, InitialCountsAreDecompositionInvariant) {
  // The skewed histogram is a pure function of the grid, never of the
  // node/rank cut, and largest-remainder rounding keeps the total exact.
  Config a = skew_config(8);
  Config b = skew_config(4);
  const Grid ga = make_grid(a, 1);
  const Grid gb = make_grid(b, 2);  // same 8 global cells as 2 x 4
  ASSERT_EQ(ga.cells(), gb.cells());
  std::int64_t total = 0;
  for (int c = 0; c < ga.cells(); ++c) {
    EXPECT_EQ(initial_count(a, ga, c), initial_count(b, gb, c));
    total += initial_count(a, ga, c);
    EXPECT_LE(initial_count(a, ga, c), a.capacity() / 2);
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(ga.cells()) * a.particles_per_cell);
  // The blob actually skews: some cell holds well above the average.
  int peak = 0;
  for (int c = 0; c < ga.cells(); ++c) peak = std::max(peak, initial_count(a, ga, c));
  EXPECT_GT(peak, a.particles_per_cell * 3 / 2);
}

// ------------------------------------------------------------- halo oracle

TEST(Dpd3dHalo, FirstIterationMatchesPureFunctionExpectation) {
  // The halo total of a single iteration must equal the count derived from
  // first principles: replay the deterministic seeding and apply the
  // ship_to_dir predicate per active direction.
  Config cfg = tiny_config(8);
  cfg.iterations = 1;
  const int nodes = 2;
  const Grid grid = make_grid(cfg, nodes);
  std::int64_t expected = 0;
  for (int cell = 0; cell < grid.cells(); ++cell) {
    const auto recs = initial_particles(cfg, grid, cell);
    for (int d : grid.active_dirs(cell)) {
      for (const auto& r : recs) {
        if (ship_to_dir(cfg, grid, cell, d, r[0], r[1], r[2])) ++expected;
      }
    }
  }
  EXPECT_GT(expected, 0);
  const Result ref = reference(cfg, nodes);
  EXPECT_EQ(ref.halo_received_total, expected);
  EXPECT_EQ(ref.halo_violations, 0);
  Cluster c1({.machine = machine(nodes), .ranks_per_device = cfg.cells_per_node});
  const Result dc = run_dcuda(c1, cfg);
  EXPECT_EQ(dc.halo_received_total, expected);
  EXPECT_EQ(dc.halo_violations, 0);
  Cluster c2({.machine = machine(nodes), .ranks_per_device = cfg.cells_per_node});
  const Result mc = run_mpi_cuda(c2, cfg);
  EXPECT_EQ(mc.halo_received_total, expected);
  EXPECT_EQ(mc.halo_violations, 0);
}

TEST(Dpd3dHalo, OracleStaysCleanOverManyIterations) {
  for (const bool skew : {false, true}) {
    Config cfg = skew ? skew_config(8) : tiny_config(8);
    cfg.iterations = 15;
    const Result ref = reference(cfg, 2);
    Cluster c1({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
    const Result dc = run_dcuda(c1, cfg);
    Cluster c2({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
    const Result mc = run_mpi_cuda(c2, cfg);
    EXPECT_EQ(ref.halo_violations, 0);
    EXPECT_EQ(dc.halo_violations, 0);
    EXPECT_EQ(mc.halo_violations, 0);
    EXPECT_GT(ref.halo_received_total, 0);
    EXPECT_EQ(dc.halo_received_total, ref.halo_received_total);
    EXPECT_EQ(mc.halo_received_total, ref.halo_received_total);
  }
}

// ------------------------------------------------------ parity + conservation

TEST(Dpd3dParity, UniformDcudaMpiReferenceBitwise) {
  Config cfg = tiny_config(8);
  const int nodes = 2;
  const Result ref = reference(cfg, nodes);
  EXPECT_EQ(ref.total_particles,
            static_cast<std::int64_t>(nodes) * 8 * cfg.particles_per_cell);
  Cluster c1({.machine = machine(nodes), .ranks_per_device = cfg.cells_per_node});
  const Result dc = run_dcuda(c1, cfg);
  Cluster c2({.machine = machine(nodes), .ranks_per_device = cfg.cells_per_node});
  const Result mc = run_mpi_cuda(c2, cfg);
  EXPECT_EQ(dc.total_particles, ref.total_particles);
  EXPECT_EQ(mc.total_particles, ref.total_particles);
  // One physics core, one floating-point order: equality is exact.
  EXPECT_DOUBLE_EQ(dc.checksum, ref.checksum);
  EXPECT_DOUBLE_EQ(mc.checksum, ref.checksum);
  EXPECT_DOUBLE_EQ(dc.momentum_x, ref.momentum_x);
  EXPECT_DOUBLE_EQ(mc.momentum_x, ref.momentum_x);
  EXPECT_DOUBLE_EQ(dc.momentum_z, ref.momentum_z);
  EXPECT_EQ(dc.max_cell_count, ref.max_cell_count);
  EXPECT_EQ(mc.max_cell_count, ref.max_cell_count);
}

TEST(Dpd3dParity, SkewedDcudaMpiReferenceBitwise) {
  Config cfg = skew_config(8);
  cfg.iterations = 15;
  const int nodes = 3;
  const Result ref = reference(cfg, nodes);
  Cluster c1({.machine = machine(nodes), .ranks_per_device = cfg.cells_per_node});
  const Result dc = run_dcuda(c1, cfg);
  Cluster c2({.machine = machine(nodes), .ranks_per_device = cfg.cells_per_node});
  const Result mc = run_mpi_cuda(c2, cfg);
  EXPECT_EQ(dc.total_particles, ref.total_particles);
  EXPECT_EQ(mc.total_particles, ref.total_particles);
  EXPECT_DOUBLE_EQ(dc.checksum, ref.checksum);
  EXPECT_DOUBLE_EQ(mc.checksum, ref.checksum);
  EXPECT_DOUBLE_EQ(dc.momentum_y, ref.momentum_y);
  EXPECT_DOUBLE_EQ(mc.momentum_y, ref.momentum_y);
  // The blob leaves a hot cell: the skew indicator shows it.
  EXPECT_GT(ref.max_cell_count, cfg.particles_per_cell);
}

TEST(Dpd3dParity, DeviceInitiatedBackendMatches) {
  Config cfg = skew_config(6);
  sim::MachineConfig m = machine(2);
  m.backend = sim::RuntimeBackend::kDeviceInitiated;
  Cluster c({.machine = m, .ranks_per_device = cfg.cells_per_node});
  const Result dc = run_dcuda(c, cfg);
  const Result ref = reference(cfg, 2);
  EXPECT_EQ(dc.total_particles, ref.total_particles);
  EXPECT_DOUBLE_EQ(dc.checksum, ref.checksum);
  EXPECT_EQ(dc.halo_violations, 0);
}

TEST(Dpd3dParity, EagerPathKeepsPhysicsBitwise) {
  // The eager/aggregation path batches the small halo and ticket puts: it
  // may move the schedule, never the physics.
  Config cfg = skew_config(8);
  cfg.rebalance = true;
  Result off, on;
  {
    Cluster c({.machine = machine(3), .ranks_per_device = cfg.cells_per_node});
    off = run_dcuda(c, cfg);
  }
  {
    sim::MachineConfig m = machine(3);
    m.rma.eager_threshold = 2048;
    Cluster c({.machine = m, .ranks_per_device = cfg.cells_per_node});
    on = run_dcuda(c, cfg);
  }
  EXPECT_NE(on.elapsed, off.elapsed);  // the eager path really ran
  EXPECT_EQ(on.total_particles, off.total_particles);
  EXPECT_DOUBLE_EQ(on.checksum, off.checksum);
  EXPECT_DOUBLE_EQ(on.momentum_x, off.momentum_x);
  EXPECT_DOUBLE_EQ(on.momentum_y, off.momentum_y);
  EXPECT_DOUBLE_EQ(on.momentum_z, off.momentum_z);
  EXPECT_EQ(on.halo_received_total, off.halo_received_total);
  EXPECT_EQ(on.halo_violations, 0);
}

TEST(Dpd3dParity, DecompositionInvariance) {
  // The same 24-cell global system cut 1 x 24 and 3 x 8 evolves identically.
  Config a = skew_config(24);
  Result one;
  {
    Cluster c({.machine = machine(1), .ranks_per_device = 24});
    one = run_dcuda(c, a);
  }
  Config b = skew_config(8);
  Cluster c({.machine = machine(3), .ranks_per_device = 8});
  const Result three = run_dcuda(c, b);
  EXPECT_EQ(one.total_particles, three.total_particles);
  EXPECT_DOUBLE_EQ(one.checksum, three.checksum);
  EXPECT_EQ(one.halo_received_total, three.halo_received_total);
}

TEST(Dpd3dParity, ArrivalOrderMatchesReferenceExactly) {
  // Large steps over a longer run make cells take arrivals from several
  // directions in one iteration. Appending them in any order but ascending
  // direction (the reference order) shifts records within the cell and with
  // them the floating-point sums: equality is exact, not within ULPs.
  Config cfg = tiny_config(8);
  cfg.dt = 0.1;
  cfg.iterations = 30;
  const Result ref = reference(cfg, 2);
  Cluster c1({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
  const Result dc = run_dcuda(c1, cfg);
  Cluster c2({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
  const Result mc = run_mpi_cuda(c2, cfg);
  EXPECT_EQ(dc.total_particles, ref.total_particles);
  EXPECT_EQ(mc.total_particles, ref.total_particles);
  EXPECT_EQ(dc.checksum, ref.checksum);
  EXPECT_EQ(mc.checksum, ref.checksum);
  EXPECT_EQ(dc.momentum_x, ref.momentum_x);
  EXPECT_EQ(mc.momentum_x, ref.momentum_x);
}

TEST(Dpd3dParity, ConservationUnderHeavyMigration) {
  // Fast drift + large dt: the blob marches a full cell width across the
  // run, so diagonal migration paths actually carry records.
  Config cfg = skew_config(8);
  cfg.dt = 0.05;
  cfg.iterations = 20;
  const std::int64_t expect = 2ll * 8 * cfg.particles_per_cell;
  const Result ref = reference(cfg, 2);
  EXPECT_EQ(ref.total_particles, expect);
  // Migration genuinely happened (the blob moved off its start cells).
  Config frozen = cfg;
  frozen.iterations = 0;
  EXPECT_NE(reference(frozen, 2).checksum, ref.checksum);
  Cluster c1({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
  EXPECT_EQ(run_dcuda(c1, cfg).total_particles, expect);
  Cluster c2({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
  EXPECT_EQ(run_mpi_cuda(c2, cfg).total_particles, expect);
}

// ------------------------------------------------------------------ rebalance

TEST(Dpd3dRebalance, SchedulesWorkTicketsButKeepsPhysicsBitwise) {
  Config cfg = skew_config(8);
  cfg.iterations = 15;
  Result off, on;
  {
    Cluster c({.machine = machine(3), .ranks_per_device = cfg.cells_per_node});
    off = run_dcuda(c, cfg);
  }
  {
    Config rcfg = cfg;
    rcfg.rebalance = true;
    Cluster c({.machine = machine(3), .ranks_per_device = cfg.cells_per_node});
    on = run_dcuda(c, rcfg);
  }
  EXPECT_EQ(off.work_tickets, 0);
  // The skewed blob must overload someone enough to trip the trigger.
  EXPECT_GT(on.work_tickets, 0);
  // Work adoption moves cost, never particles: physics is bitwise unchanged.
  EXPECT_EQ(on.total_particles, off.total_particles);
  EXPECT_DOUBLE_EQ(on.checksum, off.checksum);
  EXPECT_DOUBLE_EQ(on.momentum_x, off.momentum_x);
  EXPECT_EQ(on.halo_received_total, off.halo_received_total);
  EXPECT_EQ(on.halo_violations, 0);
}

TEST(Dpd3dRebalance, FlattensTheScanImbalanceCurve) {
  Config cfg = skew_config(8);
  cfg.iterations = 12;
  cfg.record_load = true;
  Result off, on;
  {
    Cluster c({.machine = machine(3), .ranks_per_device = cfg.cells_per_node});
    off = run_dcuda(c, cfg);
  }
  {
    Config rcfg = cfg;
    rcfg.rebalance = true;
    Cluster c({.machine = machine(3), .ranks_per_device = cfg.cells_per_node});
    on = run_dcuda(c, rcfg);
  }
  ASSERT_EQ(off.iter_imbalance.size(), static_cast<std::size_t>(cfg.iterations));
  ASSERT_EQ(on.iter_imbalance.size(), static_cast<std::size_t>(cfg.iterations));
  double sum_off = 0.0, sum_on = 0.0;
  for (int i = 0; i < cfg.iterations; ++i) {
    sum_off += off.iter_imbalance[static_cast<std::size_t>(i)];
    sum_on += on.iter_imbalance[static_cast<std::size_t>(i)];
  }
  EXPECT_GT(sum_off / cfg.iterations, 1.2);  // skew creates real imbalance
  EXPECT_LT(sum_on, sum_off);                // adoption flattens the curve
}

// The skewed-density overlap claim (EXPERIMENTS.md, "3-D DPD"): on 4 nodes,
// dCUDA with work-adoption rebalance beats the plain fork-join MPI-CUDA
// baseline by >= 1.2x, and a speedup bought with different physics fails.
// Both elapsed times are pinned, so the documented ratio and ticket count
// are too.
TEST(Dpd3dRebalance, SkewedDcudaBeatsMpiCudaWithEqualPhysics) {
  Config cfg;
  cfg.cells_per_node = 8;
  cfg.particles_per_cell = 16;
  cfg.iterations = 10;
  cfg.dt = 0.02;
  cfg.density = Density::kSkewed;
  cfg.skew_drift = 0.8;
  Config dcfg = cfg;
  dcfg.rebalance = true;
  Result d, m;
  {
    Cluster c({.machine = machine(4), .ranks_per_device = cfg.cells_per_node});
    d = run_dcuda(c, dcfg);
  }
  {
    Cluster c({.machine = machine(4), .ranks_per_device = cfg.cells_per_node});
    m = run_mpi_cuda(c, cfg);
  }
  EXPECT_EQ(d.elapsed * 1e9, 4269081.611904785);
  EXPECT_EQ(m.elapsed * 1e9, 5325728.4666667506);
  EXPECT_EQ(d.work_tickets, 410);
  EXPECT_GE(m.elapsed / d.elapsed, 1.2);
  EXPECT_EQ(d.checksum, m.checksum);
  EXPECT_EQ(d.total_particles, m.total_particles);
}

// ------------------------------------------------------------ mutation check

TEST(Dpd3dMutation, BreakingSendCompactionFiresConservationOracle) {
  // docs/TESTING.md: the in-tree mutation drops the tail record of every
  // non-empty migration buffer. If the conservation oracle cannot see that,
  // the oracle is dead — in every variant.
  Config cfg = skew_config(8);
  cfg.dt = 0.05;
  cfg.iterations = 20;
  cfg.break_compaction = true;
  const std::int64_t expect = 2ll * 8 * cfg.particles_per_cell;
  EXPECT_LT(reference(cfg, 2).total_particles, expect);
  Cluster c1({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
  EXPECT_LT(run_dcuda(c1, cfg).total_particles, expect);
  Cluster c2({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
  EXPECT_LT(run_mpi_cuda(c2, cfg).total_particles, expect);
}

// ------------------------------------------------------------ runtime switches

TEST(Dpd3dSwitches, ExchangeOnlyAndComputeOnlyRun) {
  Config cfg = tiny_config(8);
  cfg.compute = false;
  {
    Cluster c({.machine = machine(2), .ranks_per_device = cfg.cells_per_node});
    const Result r = run_dcuda(c, cfg);
    EXPECT_GT(r.elapsed, 0.0);
    EXPECT_EQ(r.total_particles, 2ll * 8 * cfg.particles_per_cell);
  }
  Config cc = tiny_config(8);
  cc.exchange = false;
  cc.iterations = 3;  // timing-only: halos stale, movers dropped
  {
    Cluster c({.machine = machine(2), .ranks_per_device = cc.cells_per_node});
    const Result r = run_dcuda(c, cc);
    EXPECT_GT(r.elapsed, 0.0);
    EXPECT_LE(r.total_particles, 2ll * 8 * cc.particles_per_cell);
  }
}

TEST(Dpd3dSwitches, BadConfigsThrowConfigError) {
  // One cell per rank: cells_per_node must match the launch.
  Config cfg = tiny_config(8);
  Cluster c1({.machine = machine(2), .ranks_per_device = 4});
  EXPECT_THROW(run_dcuda(c1, cfg), ConfigError);
  Cluster c2({.machine = machine(2), .ranks_per_device = 4});
  EXPECT_THROW(run_mpi_cuda(c2, cfg), ConfigError);
  // An explicit grid must name all three extents and cover every rank once.
  Config partial = tiny_config(8);
  partial.grid_x = 8;
  EXPECT_THROW(make_grid(partial, 1), ConfigError);
  Config wrong = tiny_config(8);
  wrong.grid_x = 3;
  wrong.grid_y = 1;
  wrong.grid_z = 1;
  EXPECT_THROW(make_grid(wrong, 1), ConfigError);
  EXPECT_THROW(reference(wrong, 1), ConfigError);
  Cluster c3({.machine = machine(1), .ranks_per_device = 8});
  EXPECT_THROW(run_dcuda(c3, wrong), ConfigError);
  // The skewed start clamps cells to half their capacity; too little slack
  // cannot hold the particle total.
  Config tight = skew_config(8);
  tight.capacity_factor = 1;
  EXPECT_THROW(reference(tight, 1), ConfigError);
  Cluster c4({.machine = machine(1), .ranks_per_device = 8});
  EXPECT_THROW(run_mpi_cuda(c4, tight), ConfigError);
  // No slack with migration on: the first arrival overflows a full cell.
  Config full = tiny_config(8);
  full.capacity_factor = 1;
  full.iterations = 40;
  EXPECT_THROW(reference(full, 2), ConfigError);
  Cluster c5({.machine = machine(2), .ranks_per_device = 8});
  EXPECT_THROW(run_dcuda(c5, full), ConfigError);
  Cluster c6({.machine = machine(2), .ranks_per_device = 8});
  EXPECT_THROW(run_mpi_cuda(c6, full), ConfigError);
}

// Fingerprints of the driver modes no bench golden pins: dCUDA with
// compute off, either variant with exchange off, one cell per device (both
// neighbours remote) and the physics checksum at a multi-node size. Each
// row: variant, mode, cells per node (2 nodes), simulated elapsed time in
// ns, checksum as a hex-float, final particle count.
enum Variant { kDcuda, kMpiCuda };
enum Mode { kFull, kComputeOnly, kExchangeOnly };
struct Fingerprint {
  Variant variant;
  Mode mode;
  int cells_per_node;
  double elapsed_ns;
  double checksum;
  std::int64_t particles;
};

TEST(Dpd3dParity, PinnedFingerprints) {
  constexpr Fingerprint kPinned[] = {
    {kDcuda, kFull, 4, 818777.85714285274, 0x1.248d52c3d612ep+8, 96},
    {kDcuda, kComputeOnly, 4, 159631.08571428579, 0x1.9b02e36a82395p+7, 66},
    {kDcuda, kExchangeOnly, 4, 477409.23809523426, 0x1.24b5940efedd4p+8, 96},
    {kMpiCuda, kFull, 4, 1041683.2857142905, 0x1.248d52c3d612ep+8, 96},
    {kMpiCuda, kComputeOnly, 4, 245036.72380952389, 0x1.9b02e36a82395p+7, 66},
    {kMpiCuda, kExchangeOnly, 4, 663217.14285714459, 0x1.24b5940efedd4p+8, 96},
    {kDcuda, kFull, 1, 388785.14285714197, 0x1.8b1098328f138p+5, 24},
    {kDcuda, kComputeOnly, 1, 160082.66666666677, 0x1.7d39d25d1ababp+5, 23},
    {kDcuda, kExchangeOnly, 1, 309992.00000000029, 0x1.8d7070de05b37p+5, 24},
    {kMpiCuda, kFull, 1, 721603.1428571447, 0x1.8b1098328f138p+5, 24},
    {kMpiCuda, kComputeOnly, 1, 247578.19047619047, 0x1.7d39d25d1ababp+5, 23},
    {kMpiCuda, kExchangeOnly, 1, 579895.71428571478, 0x1.8d7070de05b37p+5, 24},
  };
  for (const Fingerprint& f : kPinned) {
    SCOPED_TRACE(testing::Message() << "variant " << f.variant << " mode " << f.mode
                                    << " cells/node " << f.cells_per_node);
    Config cfg = tiny_config(f.cells_per_node);
    cfg.compute = f.mode != kExchangeOnly;
    cfg.exchange = f.mode != kComputeOnly;
    Cluster c({.machine = machine(2), .ranks_per_device = f.cells_per_node});
    const Result r = f.variant == kDcuda ? run_dcuda(c, cfg) : run_mpi_cuda(c, cfg);
    EXPECT_EQ(r.elapsed * 1e9, f.elapsed_ns);
    EXPECT_EQ(r.checksum, f.checksum);
    EXPECT_EQ(r.total_particles, f.particles);
  }
}

}  // namespace
}  // namespace dcuda::apps::dpd3d
