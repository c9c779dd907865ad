// Tests for the horizontal-diffusion mini-application: bit-exact kernels
// against a bounds-checked oracle, numerical agreement of both
// programming-model variants with the serial reference, and the
// qualitative performance relationship the paper reports (Fig. 10).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "apps/stencil.h"
#include "sim/config.h"

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
  // columns (no interior), odd and even widths, and the paper's 128. Grid
  // shapes {nodes, ranks per device, jlocal, ksize}: the default, a grid of
  // one j-line (its first line is its last), three lines per rank and a
  // single level.
  const int shapes[][4] = {{2, 2, 2, 3}, {1, 1, 1, 3}, {2, 2, 3, 3}, {2, 2, 2, 1}};
  for (const auto& [nodes, rpd, jlocal, ksize] : shapes) {
    for (int isize : {1, 2, 3, 5, 16, 128}) {
      for (int iterations : {3, 4}) {
        SCOPED_TRACE(testing::Message() << "nodes " << nodes << " rpd " << rpd << " jlocal "
                                        << jlocal << " ksize " << ksize << " isize " << isize
                                        << " iterations " << iterations);
        Config cfg = tiny_config();
        cfg.isize = isize;
        cfg.jlocal = jlocal;
        cfg.ksize = ksize;
        cfg.iterations = iterations;
        const std::vector<double> got = reference(cfg, nodes, rpd);
        const std::vector<double> want = oracle_reference(cfg, nodes, rpd);
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

TEST(StencilApp, VariantsAgreeBitForBit) {
  // Both variants apply the same point operations to the same operands and
  // sum their checksums in the same order, so they agree exactly, whatever
  // kernels compute each line. Shapes cover one line per device (jdev 1),
  // odd line counts, one column and ranks on one or two devices.
  for (int isize : {1, 5, 16})
    for (int jlocal : {1, 2, 3})
      for (int rpd : {1, 3})
        for (int nodes : {1, 2}) {
          SCOPED_TRACE(testing::Message() << "isize " << isize << " jlocal " << jlocal
                                          << " rpd " << rpd << " nodes " << nodes);
          Config cfg = tiny_config();
          cfg.isize = isize;
          cfg.jlocal = jlocal;
          cfg.iterations = 3;
          Cluster cd({.machine = machine(nodes), .ranks_per_device = rpd});
          Cluster cm({.machine = machine(nodes), .ranks_per_device = rpd});
          EXPECT_EQ(run_mpi_cuda(cm, cfg).checksum, run_dcuda(cd, cfg).checksum);
        }
}

TEST(StencilApp, OddIterationCountMatchesReference) {
  Config cfg = tiny_config();
  cfg.iterations = 3;
  Cluster c({.machine = machine(2), .ranks_per_device = 4});
  Result r = run_dcuda(c, cfg);
  EXPECT_NEAR(r.checksum, reference_checksum(cfg, 2, 4), 1e-9);
}

TEST(StencilApp, ExchangeOnlyOddCountKeepsInitialField) {
  // With compute off no rank writes an owned line, so both variants report
  // the initial field's checksum whatever the iteration parity.
  Config cfg = tiny_config();
  cfg.iterations = 3;
  cfg.compute = false;
  Cluster cd({.machine = machine(2), .ranks_per_device = 4});
  Cluster cm({.machine = machine(2), .ranks_per_device = 4});
  const double dcuda = run_dcuda(cd, cfg).checksum;
  EXPECT_EQ(dcuda, run_mpi_cuda(cm, cfg).checksum);
  Config none = tiny_config();
  none.iterations = 0;
  EXPECT_NEAR(dcuda, reference_checksum(none, 2, 4), 1e-9);
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

TEST(StencilGeometry, RankPatchIsContiguous) {
  // {isize, jlocal, ranks per device, ksize}: the paper's shape, single
  // column, single level, and small odd shapes.
  const int shapes[][4] = {{128, 2, 4, 16}, {1, 2, 3, 5}, {7, 1, 2, 1},
                           {1, 1, 1, 1},    {5, 3, 2, 4}, {16, 2, 4, 3}};
  for (const auto& [isize, jlocal, rpd, ksize] : shapes) {
    SCOPED_TRACE(testing::Message() << "isize " << isize << " jlocal " << jlocal
                                    << " rpd " << rpd << " ksize " << ksize);
    const Geometry g{isize, rpd * jlocal, ksize};
    EXPECT_EQ(g.elems(), static_cast<std::size_t>(isize) * (g.jdev + 2) * ksize);
    // Sorted indices of lines [j0, j1) x all levels x all columns; they must
    // be exactly the range starting at the block's first element.
    auto expect_block = [&](int j0, int j1) {
      std::vector<std::size_t> idx;
      for (int j = j0; j < j1; ++j)
        for (int k = 0; k < ksize; ++k)
          for (int i = 0; i < isize; ++i) idx.push_back(g.at(i, j, k));
      std::sort(idx.begin(), idx.end());
      ASSERT_FALSE(idx.empty());
      EXPECT_EQ(idx.front(), g.at(0, j0, 0));
      for (std::size_t e = 0; e < idx.size(); ++e) EXPECT_EQ(idx[e], idx.front() + e);
    };
    for (int r = 0; r < rpd; ++r) expect_block(r * jlocal, (r + 1) * jlocal);
    expect_block(-1, 0);               // bottom halo line
    expect_block(g.jdev, g.jdev + 1);  // top halo line
    expect_block(-1, g.jdev + 1);      // the whole array: [0, elems())
  }
}

TEST(StencilApp, BadConfigThrows) {
  auto with = [](auto edit) {
    Config cfg = tiny_config();
    edit(cfg);
    return cfg;
  };
  const Config bad[] = {
      with([](Config& c) { c.isize = 0; }),  with([](Config& c) { c.jlocal = 0; }),
      with([](Config& c) { c.ksize = 0; }),  with([](Config& c) { c.isize = -3; }),
      with([](Config& c) { c.iterations = -1; }),
  };
  for (const Config& cfg : bad) {
    SCOPED_TRACE(testing::Message() << "isize " << cfg.isize << " jlocal " << cfg.jlocal
                                    << " ksize " << cfg.ksize << " iterations "
                                    << cfg.iterations);
    EXPECT_THROW(reference(cfg, 2, 2), ConfigError);
    EXPECT_THROW(reference_checksum(cfg, 2, 2), ConfigError);
    Cluster cd({.machine = machine(2), .ranks_per_device = 2});
    EXPECT_THROW(run_dcuda(cd, cfg), ConfigError);
    Cluster cm({.machine = machine(2), .ranks_per_device = 2});
    EXPECT_THROW(run_mpi_cuda(cm, cfg), ConfigError);
  }
  EXPECT_THROW(reference(tiny_config(), 0, 2), ConfigError);
  EXPECT_THROW(reference_checksum(tiny_config(), 2, 0), ConfigError);
  // Shapes whose products overflow an int: isize * ksize, ranks per device
  // * jlocal, nodes * lines per device. Each must be refused before anything
  // is allocated.
  const Config huge_row = with([](Config& c) { c.isize = c.ksize = 1 << 16; });
  const Config huge_jlocal = with([](Config& c) { c.jlocal = 1 << 30; });
  EXPECT_THROW(reference(huge_row, 2, 2), ConfigError);
  EXPECT_THROW(reference(huge_jlocal, 1, 4), ConfigError);
  EXPECT_THROW(reference(with([](Config& c) { c.jlocal = 1 << 20; }), 1 << 12, 1), ConfigError);
  for (const Config& cfg : {huge_row, huge_jlocal}) {
    Cluster cd({.machine = machine(2), .ranks_per_device = 4});
    EXPECT_THROW(run_dcuda(cd, cfg), ConfigError);
    Cluster cm({.machine = machine(2), .ranks_per_device = 4});
    EXPECT_THROW(run_mpi_cuda(cm, cfg), ConfigError);
  }
  // Zero iterations is valid: the checksum of the initial field.
  Config none = tiny_config();
  none.iterations = 0;
  Cluster c({.machine = machine(2), .ranks_per_device = 2});
  EXPECT_NEAR(run_dcuda(c, none).checksum, reference_checksum(none, 2, 2), 1e-9);
}

TEST(StencilApp, DevicesStoreOnlyExchangedLines) {
  // Per device, MPI-CUDA keeps one field array, swept in place, and six
  // lines: lap's and fly's two exchanged lines each and the spare halo pair
  // the out exchange lands in; plus 2 send and 2 receive buffers of one line.
  // dCUDA keeps in and out as arrays (their windows are double-buffered) and
  // of lap and fly one slot per rank plus one halo slot each.
  const Config cfg = tiny_config();
  const int rpd = 4, nodes = 2;
  const Geometry g{cfg.isize, rpd * cfg.jlocal, cfg.ksize};
  const std::size_t array_bytes = g.elems() * sizeof(double);
  const std::size_t line_bytes = g.jstride() * sizeof(double);
  auto device_bytes = [&](auto run) {
    Cluster c({.machine = machine(nodes), .ranks_per_device = rpd});
    std::vector<std::size_t> before, grown;
    for (int n = 0; n < nodes; ++n) before.push_back(c.device(n).bytes_allocated());
    run(c, cfg);
    for (int n = 0; n < nodes; ++n)
      grown.push_back(c.device(n).bytes_allocated() - before[static_cast<std::size_t>(n)]);
    return grown;
  };
  for (std::size_t bytes : device_bytes(run_mpi_cuda))
    EXPECT_LE(bytes, array_bytes + 10 * line_bytes);
  for (std::size_t bytes : device_bytes(run_dcuda))
    EXPECT_LE(bytes, 2 * array_bytes + (2 * (rpd + 1) + 2) * line_bytes);
}

// Fingerprints of the driver modes no bench golden pins: either variant
// with compute or exchange off, one rank per device (both neighbours
// remote), one line per device, one line per rank (its bottom line is its
// top line), three lines per rank, and four lines per rank on five ranks per
// device (the sweep reuses each rolling line). Each row: variant, mode, ranks per
// device (2 nodes), simulated elapsed time in ns, checksum as a hex-float,
// lines per rank.
enum Variant { kDcuda, kMpiCuda };
enum Mode { kFull, kComputeOnly, kExchangeOnly };
struct Fingerprint {
  Variant variant;
  Mode mode;
  int ranks_per_device;
  double elapsed_ns;
  double checksum;
  int jlocal = 2;
};

TEST(StencilApp, PinnedFingerprints) {
  constexpr Fingerprint kPinned[] = {
    {kDcuda, kFull, 4, 229880.352380953, 0x1.07fdba8ecdbfcp+9},
    {kDcuda, kComputeOnly, 4, 109473.70476190472, 0x1.082f8569cdf93p+9},
    {kDcuda, kExchangeOnly, 4, 214870.00000000061, 0x1.07fdba8ecdbfep+9},
    {kMpiCuda, kFull, 4, 274703.18095238134, 0x1.07fdba8ecdbfcp+9},
    {kMpiCuda, kComputeOnly, 4, 89916.038095238109, 0x1.082f8569cdf93p+9},
    {kMpiCuda, kExchangeOnly, 4, 184787.14285714319, 0x1.07fdba8ecdbfep+9},
    {kDcuda, kFull, 1, 211478.03809523859, 0x1.e1aa3c39f9325p+6},
    {kDcuda, kComputeOnly, 1, 105423.70476190466, 0x1.e413350f47a34p+6},
    {kDcuda, kExchangeOnly, 1, 195962.00000000041, 0x1.e1e6fa3c53d1bp+6},
    {kMpiCuda, kFull, 1, 274703.18095238134, 0x1.e1aa3c39f9325p+6},
    {kMpiCuda, kComputeOnly, 1, 89916.038095238109, 0x1.e413350f47a34p+6},
    {kMpiCuda, kExchangeOnly, 1, 184787.14285714319, 0x1.e1e6fa3c53d1bp+6},
    {kMpiCuda, kFull, 1, 266945.16190476232, 0x1.d9d4df7f8f8d2p+5, 1},
    {kMpiCuda, kComputeOnly, 1, 82158.019047619062, 0x1.f3a90291b2d27p+5, 1},
    {kMpiCuda, kFull, 2, 282461.2000000003, 0x1.8077791de2b48p+8, 3},
    {kMpiCuda, kComputeOnly, 2, 97674.057142857127, 0x1.80d975e20f39cp+8, 3},
    {kDcuda, kFull, 3, 220803.01904761972, 0x1.6f2fcb0967d32p+7, 1},
    {kDcuda, kComputeOnly, 3, 100365.68571428563, 0x1.7051f5ce0b425p+7, 1},
    {kDcuda, kFull, 2, 234668.20952381007, 0x1.8077791de2b48p+8, 3},
    {kDcuda, kComputeOnly, 2, 114531.7238095237, 0x1.80d975e20f39cp+8, 3},
    {kDcuda, kFull, 5, 247053.58095238154, 0x1.8396c2cc1ac8ap+10, 4},
    {kDcuda, kComputeOnly, 5, 126339.74285714279, 0x1.83b302851952bp+10, 4},
  };
  for (const Fingerprint& f : kPinned) {
    SCOPED_TRACE(testing::Message() << "variant " << f.variant << " mode " << f.mode
                                    << " ranks/device " << f.ranks_per_device
                                    << " jlocal " << f.jlocal);
    Config cfg = tiny_config();
    cfg.jlocal = f.jlocal;
    cfg.compute = f.mode != kExchangeOnly;
    cfg.exchange = f.mode != kComputeOnly;
    Cluster c({.machine = machine(2), .ranks_per_device = f.ranks_per_device});
    const Result r = f.variant == kDcuda ? run_dcuda(c, cfg) : run_mpi_cuda(c, cfg);
    EXPECT_EQ(r.elapsed * 1e9, f.elapsed_ns);
    EXPECT_EQ(r.checksum, f.checksum);
  }
}

}  // namespace
}  // namespace dcuda::apps::stencil
