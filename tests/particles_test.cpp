// Tests for the particle-simulation mini-application: conservation laws,
// exact agreement between variants and the serial reference, migration
// correctness across rank and node boundaries.

#include <gtest/gtest.h>

#include <cstdint>

#include "apps/particles.h"
#include "sim/config.h"

namespace dcuda::apps::particles {
namespace {

Config tiny_config(int cells_per_node) {
  Config cfg;
  cfg.cells_per_node = cells_per_node;
  cfg.particles_per_cell = 12;
  cfg.iterations = 10;
  cfg.dt = 0.02;
  return cfg;
}

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

TEST(ParticlesApp, ReferenceConservesParticles) {
  Config cfg = tiny_config(6);
  Result r = reference(cfg, 2);
  EXPECT_EQ(r.total_particles, 2 * 6 * 12);
}

TEST(ParticlesApp, ParticlesActuallyMigrate) {
  // Sanity: with moving particles and many iterations, at least one particle
  // crosses a cell boundary (otherwise the migration path is untested).
  Config cfg = tiny_config(6);
  cfg.iterations = 40;
  Result a = reference(cfg, 1);
  Config cfg0 = cfg;
  cfg0.iterations = 0;
  Result b = reference(cfg0, 1);
  EXPECT_NE(a.checksum, b.checksum);
}

TEST(ParticlesApp, DcudaMatchesReferenceSingleNode) {
  Config cfg = tiny_config(6);
  Cluster c({.machine = machine(1), .ranks_per_device = 6});
  Result r = run_dcuda(c, cfg);
  Result ref = reference(cfg, 1);
  EXPECT_EQ(r.total_particles, ref.total_particles);
  EXPECT_NEAR(r.checksum, ref.checksum, 1e-9);
  EXPECT_NEAR(r.momentum_x, ref.momentum_x, 1e-9);
}

TEST(ParticlesApp, DcudaMatchesReferenceMultiNode) {
  Config cfg = tiny_config(4);
  Cluster c({.machine = machine(3), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  Result ref = reference(cfg, 3);
  EXPECT_EQ(r.total_particles, ref.total_particles);
  EXPECT_NEAR(r.checksum, ref.checksum, 1e-9);
}

TEST(ParticlesApp, MpiCudaMatchesReferenceSingleNode) {
  Config cfg = tiny_config(6);
  Cluster c({.machine = machine(1), .ranks_per_device = 6});
  Result r = run_mpi_cuda(c, cfg);
  Result ref = reference(cfg, 1);
  EXPECT_EQ(r.total_particles, ref.total_particles);
  EXPECT_NEAR(r.checksum, ref.checksum, 1e-9);
}

TEST(ParticlesApp, MpiCudaMatchesReferenceMultiNode) {
  Config cfg = tiny_config(4);
  Cluster c({.machine = machine(3), .ranks_per_device = 4});
  Result r = run_mpi_cuda(c, cfg);
  Result ref = reference(cfg, 3);
  EXPECT_EQ(r.total_particles, ref.total_particles);
  EXPECT_NEAR(r.checksum, ref.checksum, 1e-9);
}

TEST(ParticlesApp, VariantsAgreeExactly) {
  Config cfg = tiny_config(4);
  cfg.iterations = 15;
  Cluster c1({.machine = machine(2), .ranks_per_device = 4});
  Cluster c2({.machine = machine(2), .ranks_per_device = 4});
  Result a = run_dcuda(c1, cfg);
  Result b = run_mpi_cuda(c2, cfg);
  EXPECT_EQ(a.total_particles, b.total_particles);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(ParticlesApp, DecompositionInvariance) {
  // The same global system cut at different node counts must evolve
  // identically (deterministic init + deterministic migration order).
  Config cfg = tiny_config(8);
  Result one_node;
  {
    Cluster c({.machine = machine(1), .ranks_per_device = 8});
    one_node = run_dcuda(c, cfg);
  }
  Config cfg2 = tiny_config(4);  // same 8 global cells as 2 nodes x 4
  Cluster c({.machine = machine(2), .ranks_per_device = 4});
  Result two_nodes = run_dcuda(c, cfg2);
  EXPECT_EQ(one_node.total_particles, two_nodes.total_particles);
  EXPECT_NEAR(one_node.checksum, two_nodes.checksum, 1e-9);
}

TEST(ParticlesApp, MomentumDriftsOnlyThroughWalls) {
  // Pure pair forces conserve momentum; wall reflections change it. With
  // particles away from walls and few steps, momentum is conserved.
  Config cfg = tiny_config(6);
  cfg.iterations = 1;
  cfg.dt = 1e-4;
  Result r0 = reference(cfg, 1);
  Config cfgz = cfg;
  cfgz.iterations = 0;
  Result z = reference(cfgz, 1);
  EXPECT_NEAR(r0.momentum_x, z.momentum_x, 1e-6);
  EXPECT_NEAR(r0.momentum_y, z.momentum_y, 1e-6);
}

TEST(ParticlesApp, SingleCellDomainHasNoNeighbours) {
  // Latent-assumption audit (docs/TESTING.md): the 1-D chain's neighbor
  // math must survive the no-neighbor degenerate domain — a single global
  // cell posts zero halo sends and must wait for zero notifications instead
  // of hanging or deadlocking on its own boundary.
  Config cfg = tiny_config(1);
  const Result ref = reference(cfg, 1);
  Cluster c1({.machine = machine(1), .ranks_per_device = 1});
  const Result dc = run_dcuda(c1, cfg);
  Cluster c2({.machine = machine(1), .ranks_per_device = 1});
  const Result mc = run_mpi_cuda(c2, cfg);
  EXPECT_EQ(dc.total_particles, ref.total_particles);
  EXPECT_EQ(mc.total_particles, ref.total_particles);
  EXPECT_NEAR(dc.checksum, ref.checksum, 1e-9);
  EXPECT_NEAR(mc.checksum, ref.checksum, 1e-9);
}

TEST(ParticlesApp, ExchangeOnlySwitchRuns) {
  Config cfg = tiny_config(4);
  cfg.compute = false;
  Cluster c({.machine = machine(2), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  EXPECT_GT(r.elapsed, 0.0);
  EXPECT_EQ(r.total_particles, 2 * 4 * 12);  // nothing moves, nothing lost
}

TEST(ParticlesApp, ComputeOnlySwitchRuns) {
  Config cfg = tiny_config(4);
  cfg.exchange = false;
  cfg.iterations = 3;  // timing-only mode: halos stale, movers are dropped
  Cluster c({.machine = machine(2), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  EXPECT_GT(r.elapsed, 0.0);
  EXPECT_LE(r.total_particles, 2 * 4 * 12);
  EXPECT_GT(r.total_particles, 2 * 4 * 12 / 2);
}

TEST(ParticlesApp, ArrivalOrderMatchesReferenceExactly) {
  // Larger steps over a longer run send movers both ways, so cells take
  // arrivals from both neighbours in one iteration. Appending them in any
  // order but left-then-right (the reference order) shifts records within
  // the cell and with them the floating-point sums: equality is exact.
  Config cfg = tiny_config(4);
  cfg.dt = 0.06;
  cfg.iterations = 40;
  const Result ref = reference(cfg, 2);
  Cluster c1({.machine = machine(2), .ranks_per_device = 4});
  const Result dc = run_dcuda(c1, cfg);
  Cluster c2({.machine = machine(2), .ranks_per_device = 4});
  const Result mc = run_mpi_cuda(c2, cfg);
  EXPECT_EQ(dc.total_particles, ref.total_particles);
  EXPECT_EQ(mc.total_particles, ref.total_particles);
  EXPECT_EQ(dc.checksum, ref.checksum);
  EXPECT_EQ(mc.checksum, ref.checksum);
  EXPECT_EQ(dc.momentum_x, ref.momentum_x);
  EXPECT_EQ(mc.momentum_x, ref.momentum_x);
}

TEST(ParticlesApp, BadConfigsThrowConfigError) {
  // One cell per rank: cells_per_node must match the launch.
  Config cfg = tiny_config(4);
  Cluster c1({.machine = machine(2), .ranks_per_device = 3});
  EXPECT_THROW(run_dcuda(c1, cfg), ConfigError);
  Cluster c2({.machine = machine(2), .ranks_per_device = 3});
  EXPECT_THROW(run_mpi_cuda(c2, cfg), ConfigError);
  // No slack: the first arrival overflows a full cell.
  Config full = tiny_config(4);
  full.capacity_factor = 1;
  full.iterations = 40;
  EXPECT_THROW(reference(full, 2), ConfigError);
  Cluster c3({.machine = machine(2), .ranks_per_device = 4});
  EXPECT_THROW(run_dcuda(c3, full), ConfigError);
  Cluster c4({.machine = machine(2), .ranks_per_device = 4});
  EXPECT_THROW(run_mpi_cuda(c4, full), ConfigError);
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

TEST(ParticlesApp, PinnedFingerprints) {
  constexpr Fingerprint kPinned[] = {
    {kDcuda, kFull, 4, 503599.49206348945, 0x1.af14a02a27256p+8, 96},
    {kDcuda, kComputeOnly, 4, 209576.84444444469, 0x1.0849542658786p+8, 61},
    {kDcuda, kExchangeOnly, 4, 459101.04761904548, 0x1.b192dd13c108ap+8, 96},
    {kMpiCuda, kFull, 4, 570549.7714285712, 0x1.af14a02a27256p+8, 96},
    {kMpiCuda, kComputeOnly, 4, 285805.48571428593, 0x1.9d6d6138f509p+8, 92},
    {kMpiCuda, kExchangeOnly, 4, 401723.80952380813, 0x1.b192dd13c108ap+8, 96},
    {kDcuda, kFull, 1, 443374.2857142837, 0x1.165e0e181a119p+5, 24},
    {kDcuda, kComputeOnly, 1, 198229.45396825406, 0x1.c9d99964998cdp+4, 20},
    {kDcuda, kExchangeOnly, 1, 413681.33333333209, 0x1.116db190ace52p+5, 24},
    {kMpiCuda, kFull, 1, 551622.95238095184, 0x1.165e0e181a119p+5, 24},
    {kMpiCuda, kComputeOnly, 1, 282069.77142857172, 0x1.c9d99964998cdp+4, 20},
    {kMpiCuda, kExchangeOnly, 1, 398036.66666666517, 0x1.116db190ace52p+5, 24},
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
}  // namespace dcuda::apps::particles
