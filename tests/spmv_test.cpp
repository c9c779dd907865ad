// Tests for the SpMV mini-application: numerical agreement with the serial
// reference, tree-collective correctness, and the worst-case overlap
// behaviour the paper reports.

#include <gtest/gtest.h>

#include "apps/spmv.h"
#include "sim/config.h"

namespace dcuda::apps::spmv {
namespace {

Config tiny_config(int rpd) {
  Config cfg;
  cfg.n_dev = rpd * 8;  // 8 rows per rank
  cfg.density = 0.05;
  cfg.iterations = 2;
  return cfg;
}

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

TEST(SpmvApp, PatchGenerationDeterministic) {
  Config cfg = tiny_config(4);
  CsrPatch a = make_patch(cfg, 1, 2);
  CsrPatch b = make_patch(cfg, 1, 2);
  EXPECT_EQ(a.col, b.col);
  EXPECT_EQ(a.val, b.val);
  CsrPatch c = make_patch(cfg, 2, 1);
  EXPECT_NE(a.val, c.val);
  EXPECT_EQ(a.row_ptr.back(), static_cast<std::int32_t>(a.col.size()));
}

TEST(SpmvApp, DcudaMatchesReferenceSingleNode) {
  Config cfg = tiny_config(4);
  Cluster c({.machine = machine(1), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 1), 1e-9 * std::abs(r.checksum) + 1e-9);
}

TEST(SpmvApp, DcudaMatchesReferenceFourNodes) {
  Config cfg = tiny_config(4);
  Cluster c({.machine = machine(4), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 4), 1e-9 * std::abs(r.checksum) + 1e-9);
}

TEST(SpmvApp, DcudaMatchesReferenceNineNodes) {
  Config cfg = tiny_config(2);
  Cluster c({.machine = machine(9), .ranks_per_device = 2});
  Result r = run_dcuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 9), 1e-9 * std::abs(r.checksum) + 1e-9);
}

TEST(SpmvApp, MpiCudaMatchesReferenceSingleNode) {
  Config cfg = tiny_config(4);
  Cluster c({.machine = machine(1), .ranks_per_device = 4});
  Result r = run_mpi_cuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 1), 1e-9 * std::abs(r.checksum) + 1e-9);
}

TEST(SpmvApp, MpiCudaMatchesReferenceFourNodes) {
  Config cfg = tiny_config(4);
  Cluster c({.machine = machine(4), .ranks_per_device = 4});
  Result r = run_mpi_cuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 4), 1e-9 * std::abs(r.checksum) + 1e-9);
}

TEST(SpmvApp, MpiCudaMatchesReferenceNineNodes) {
  Config cfg = tiny_config(2);
  Cluster c({.machine = machine(9), .ranks_per_device = 2});
  Result r = run_mpi_cuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 9), 1e-9 * std::abs(r.checksum) + 1e-9);
}

TEST(SpmvApp, VariantsAgree) {
  Config cfg = tiny_config(4);
  Cluster c1({.machine = machine(4), .ranks_per_device = 4});
  Cluster c2({.machine = machine(4), .ranks_per_device = 4});
  Result a = run_dcuda(c1, cfg);
  Result b = run_mpi_cuda(c2, cfg);
  EXPECT_NEAR(a.checksum, b.checksum, 1e-9 * std::abs(a.checksum) + 1e-9);
}

TEST(SpmvApp, TightSynchronizationLimitsOverlap) {
  // The paper's point: with a barrier after every multiply, dCUDA gains
  // little — it should be in the same ballpark as MPI-CUDA (within 2x),
  // not dramatically faster.
  Config cfg = tiny_config(8);
  cfg.iterations = 4;
  Cluster c1({.machine = machine(4), .ranks_per_device = 8});
  Cluster c2({.machine = machine(4), .ranks_per_device = 8});
  const double d = run_dcuda(c1, cfg).elapsed;
  const double m = run_mpi_cuda(c2, cfg).elapsed;
  // At this toy size the per-operation host costs dominate dCUDA; the paper
  // likewise shows dCUDA behind at small node counts. Same ballpark only —
  // the realistic-size comparison is bench/fig11_spmv_scaling.
  EXPECT_LT(d / m, 3.5);
  EXPECT_GT(d / m, 0.5);
}

TEST(SpmvApp, BadConfigsThrowConfigError) {
  // The 2-D decomposition needs a square node count.
  Config cfg = tiny_config(4);
  EXPECT_THROW(reference_checksum(cfg, 2), ConfigError);
  Cluster c1({.machine = machine(2), .ranks_per_device = 4});
  EXPECT_THROW(run_dcuda(c1, cfg), ConfigError);
  Cluster c2({.machine = machine(2), .ranks_per_device = 4});
  EXPECT_THROW(run_mpi_cuda(c2, cfg), ConfigError);
  // Patch rows must split evenly over the ranks of a device.
  Config uneven = tiny_config(4);
  uneven.n_dev = 30;
  Cluster c3({.machine = machine(1), .ranks_per_device = 4});
  EXPECT_THROW(run_dcuda(c3, uneven), ConfigError);
  Cluster c4({.machine = machine(1), .ranks_per_device = 4});
  EXPECT_THROW(run_mpi_cuda(c4, uneven), ConfigError);
}

}  // namespace
}  // namespace dcuda::apps::spmv
