// Tests for the horizontal-diffusion mini-application: bit-exact kernels
// against a bounds-checked oracle, numerical agreement of both
// programming-model variants with the serial reference, and the
// qualitative performance relationship the paper reports (Fig. 10).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/stencil.h"

namespace dcuda::apps::stencil {
namespace {

Config tiny_config() {
  Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 4;
  return cfg;
}

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

// Bounds-checked oracle: the stencil kernels in their plain form, one
// zero-padded at() per operand and one initial_value() call per point. The
// library's row kernels must reproduce it bit for bit; sharing no code with
// them, it also catches a bug that reference() and both variants would
// share.
struct OracleField {
  std::vector<double>& data;
  Geometry g;
  double at(int i, int j, int k) const {
    if (i < 0 || i >= g.isize) return 0.0;
    return data[g.at(i, j, k)];
  }
  double& ref(int i, int j, int k) { return data[g.at(i, j, k)]; }
};

std::vector<double> oracle_reference(const Config& cfg, int num_nodes, int rpd) {
  const int jtotal = num_nodes * rpd * cfg.jlocal;
  const Geometry g{cfg.isize, jtotal, cfg.ksize};
  std::vector<double> in(g.elems(), 0.0), lap(g.elems(), 0.0), flx(g.elems(), 0.0),
      fly(g.elems(), 0.0), out(g.elems(), 0.0);
  for (int k = 0; k < g.ksize; ++k)
    for (int j = -1; j <= g.jdev; ++j)
      for (int i = 0; i < g.isize; ++i)
        in[g.at(i, j, k)] = j < jtotal ? initial_value(i, j, k) : 0.0;
  for (int it = 0; it < cfg.iterations; ++it) {
    OracleField fin{in, g}, flap{lap, g}, fflx{flx, g}, ffly{fly, g}, fout{out, g};
    for (int k = 0; k < g.ksize; ++k)
      for (int j = 0; j < jtotal; ++j)
        for (int i = 0; i < g.isize; ++i)
          flap.ref(i, j, k) = 4.0 * fin.at(i, j, k) - fin.at(i + 1, j, k) -
                              fin.at(i - 1, j, k) - fin.at(i, j + 1, k) -
                              fin.at(i, j - 1, k);
    for (int k = 0; k < g.ksize; ++k)
      for (int j = 0; j < jtotal; ++j)
        for (int i = 0; i < g.isize; ++i) {
          double fx = flap.at(i + 1, j, k) - flap.at(i, j, k);
          if (fx * (fin.at(i + 1, j, k) - fin.at(i, j, k)) > 0.0) fx = 0.0;
          fflx.ref(i, j, k) = fx;
          double fy = flap.at(i, j + 1, k) - flap.at(i, j, k);
          if (fy * (fin.at(i, j + 1, k) - fin.at(i, j, k)) > 0.0) fy = 0.0;
          ffly.ref(i, j, k) = fy;
        }
    for (int k = 0; k < g.ksize; ++k)
      for (int j = 0; j < jtotal; ++j)
        for (int i = 0; i < g.isize; ++i)
          fout.ref(i, j, k) =
              fin.at(i, j, k) -
              cfg.diffusion_coeff * (fflx.at(i, j, k) - fflx.at(i - 1, j, k) +
                                     ffly.at(i, j, k) - ffly.at(i, j - 1, k));
    std::swap(in, out);
  }
  return in;
}

TEST(StencilKernels, MatchBoundsCheckedOracleBitForBit) {
  // Edge widths: a single column (both edges peeled onto one point), two
  // columns (no interior), odd and even widths, and the paper's 128.
  for (int isize : {1, 2, 3, 5, 16, 128}) {
    for (int iterations : {3, 4}) {
      SCOPED_TRACE("isize=" + std::to_string(isize) +
                   " iterations=" + std::to_string(iterations));
      Config cfg = tiny_config();
      cfg.isize = isize;
      cfg.iterations = iterations;
      const std::vector<double> got = reference(cfg, 2, 2);
      const std::vector<double> want = oracle_reference(cfg, 2, 2);
      ASSERT_EQ(got.size(), want.size());
      std::size_t mismatches = 0, first = 0;
      for (std::size_t e = 0; e < got.size(); ++e) {
        if (std::memcmp(&got[e], &want[e], sizeof(double)) != 0 && mismatches++ == 0) {
          first = e;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "first mismatch at element " << first << ": "
                                << got[first] << " vs oracle " << want[first];
    }
  }
}

TEST(StencilApp, ChecksumsPinnedToParentBits) {
  // The exact bits of the bounds-checked kernels on tiny_config(), 2 nodes x
  // 4 ranks per device. Any reordering of the floating-point operations in
  // the kernels or the initial condition changes them.
  const Config cfg = tiny_config();
  Cluster cd({.machine = machine(2), .ranks_per_device = 4});
  Cluster cm({.machine = machine(2), .ranks_per_device = 4});
  EXPECT_EQ(reference_checksum(cfg, 2, 4), 0x1.07fdba8ecdcp+9);
  EXPECT_EQ(run_dcuda(cd, cfg).checksum, 0x1.07fdba8ecdbfcp+9);
  EXPECT_EQ(run_mpi_cuda(cm, cfg).checksum, 0x1.07fdba8ecdbfcp+9);
}

TEST(StencilApp, DcudaMatchesReferenceSingleNode) {
  Config cfg = tiny_config();
  Cluster c({.machine = machine(1), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 1, 4), 1e-9);
}

TEST(StencilApp, DcudaMatchesReferenceMultiNode) {
  Config cfg = tiny_config();
  Cluster c({.machine = machine(3), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 3, 4), 1e-9);
}

TEST(StencilApp, MpiCudaMatchesReferenceSingleNode) {
  Config cfg = tiny_config();
  Cluster c({.machine = machine(1), .ranks_per_device = 4});
  Result r = run_mpi_cuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 1, 4), 1e-9);
}

TEST(StencilApp, MpiCudaMatchesReferenceMultiNode) {
  Config cfg = tiny_config();
  Cluster c({.machine = machine(3), .ranks_per_device = 4});
  Result r = run_mpi_cuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 3, 4), 1e-9);
}

TEST(StencilApp, VariantsAgreeWithEachOther) {
  Config cfg = tiny_config();
  cfg.iterations = 5;  // odd: exercises the buffer-parity bookkeeping
  Cluster c1({.machine = machine(2), .ranks_per_device = 4});
  Cluster c2({.machine = machine(2), .ranks_per_device = 4});
  Result a = run_dcuda(c1, cfg);
  Result b = run_mpi_cuda(c2, cfg);
  EXPECT_NEAR(a.checksum, b.checksum, 1e-9);
}

TEST(StencilApp, OddIterationCountMatchesReference) {
  Config cfg = tiny_config();
  cfg.iterations = 3;
  Cluster c({.machine = machine(2), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 2, 4), 1e-9);
}

TEST(StencilApp, SingleRankPerDeviceWorks) {
  Config cfg = tiny_config();
  Cluster c({.machine = machine(2), .ranks_per_device = 1});
  Result r = run_dcuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 2, 1), 1e-9);
}

TEST(StencilApp, RuntimeSwitchesProduceShorterRuns) {
  // The §IV-B methodology: compute-only and exchange-only runs must both be
  // no slower than the full run.
  Config cfg = tiny_config();
  cfg.iterations = 6;
  auto timed = [&](bool compute, bool exchange) {
    Config c2 = cfg;
    c2.compute = compute;
    c2.exchange = exchange;
    Cluster c({.machine = machine(2), .ranks_per_device = 4});
    return run_dcuda(c, c2).elapsed;
  };
  const double full = timed(true, true);
  const double compute_only = timed(true, false);
  const double exchange_only = timed(false, true);
  EXPECT_LE(compute_only, full * 1.05);
  EXPECT_LE(exchange_only, full * 1.05);
  EXPECT_GT(full, 0.0);
}

TEST(StencilApp, DcudaWireTrafficOnlyAtDeviceBoundaries) {
  // All intra-device halos are zero-copy notifications; only the two device
  // boundary lines travel the network per exchange.
  Config cfg = tiny_config();
  Cluster c({.machine = machine(2), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  // Upper bound: iterations * 4 directed line-exchanges * line bytes * k
  // plus envelopes/meta/barrier traffic — far below one full array.
  const double line = static_cast<double>(cfg.isize) * sizeof(double) * cfg.ksize;
  EXPECT_LT(static_cast<double>(r.bytes_on_wire), cfg.iterations * 4 * line * 3.0);
  EXPECT_GT(r.bytes_on_wire, 0u);
}

TEST(StencilApp, MultiNodeDcudaHidesHaloCost) {
  // Fig. 10's qualitative claim at small scale: going from 1 to 2 nodes,
  // the dCUDA per-node time grows less than the MPI-CUDA per-node time
  // (dCUDA overlaps the halo exchange it newly pays for).
  Config cfg;
  cfg.isize = 64;
  cfg.jlocal = 2;
  cfg.ksize = 8;
  cfg.iterations = 12;
  auto run_pair = [&](int nodes) {
    Cluster cd({.machine = machine(nodes), .ranks_per_device = 32});
    Cluster cm({.machine = machine(nodes), .ranks_per_device = 32});
    return std::pair<double, double>{run_dcuda(cd, cfg).elapsed,
                                     run_mpi_cuda(cm, cfg).elapsed};
  };
  auto [d1, m1] = run_pair(1);
  auto [d2, m2] = run_pair(2);
  const double dcuda_growth = d2 - d1;
  const double mpicuda_growth = m2 - m1;
  EXPECT_LT(dcuda_growth, mpicuda_growth);
}

}  // namespace
}  // namespace dcuda::apps::stencil
