// Fig. 9-style study in 3-D: the DPD particle simulation with the
// 27-direction halo exchange under uniform and skewed particle densities.
//
// Sections (default mode):
//   * weak scaling, uniform density: constant cells and particles per node;
//     26 small messages per rank per iteration are the eager-path workload.
//   * weak scaling, skewed density: same particle total concentrated in a
//     drifting Gaussian blob — the dynamic load-imbalance regime. The
//     imbalance column is the mean over iterations of max/mean pair scans.
//   * strong scaling: fixed 24-cell domain spread over 1..3 nodes.
//   * eager ablation: skewed run with the eager/aggregation path off vs on
//     (sim::RmaConfig::eager_threshold); the halo payloads are small enough
//     to ride the eager path.
//   * rails ablation: skewed run on 1 vs 2 NIC rails.
//   * rebalance ablation: skewed run with work-adoption off vs on; the
//     ticket count and the physics checksum (bitwise unchanged) are shown.
//
// Extra modes:
//   --fingerprint   deterministic one-line fingerprint of the skewed
//                   schedule (the dpd3d_skew* golden cases,
//                   tests/golden/cases.txt).
//   --eager         apply eager_threshold=2048 to every run (the
//                   dpd3d_skew_eager golden case).
//
// Knobs: DCUDA_BENCH_ITERS (iterations, at least 1), DCUDA_DPD3D_PPC
// (particles per cell, at least 1), plus the cluster-wide DCUDA_* schedule
// knobs via bench::machine.

#include <cstdio>
#include <cstring>
#include <numeric>

#include "apps/dpd3d.h"
#include "bench/common.h"

namespace {

using dcuda::apps::dpd3d::Config;
using dcuda::apps::dpd3d::Density;
using dcuda::apps::dpd3d::Result;

struct Options {
  bool fingerprint = false;
  bool eager = false;
};

Config base_config() {
  Config cfg;
  cfg.cells_per_node = 8;
  cfg.particles_per_cell = dcuda::bench::env_int("DCUDA_DPD3D_PPC", 16, 1);
  cfg.iterations = dcuda::bench::iterations(10);
  cfg.dt = 0.02;
  return cfg;
}

Result run(int nodes, const Config& cfg, bool dcuda_variant, bool eager) {
  using namespace dcuda;
  sim::MachineConfig machine = bench::machine(nodes);
  if (eager) machine.rma.eager_threshold = 2048;
  Cluster c({.machine = machine, .ranks_per_device = cfg.cells_per_node});
  return dcuda_variant ? apps::dpd3d::run_dcuda(c, cfg)
                       : apps::dpd3d::run_mpi_cuda(c, cfg);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

Config skewed_config() {
  Config cfg = base_config();
  cfg.density = Density::kSkewed;
  cfg.skew_drift = 0.8;
  cfg.record_load = true;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcuda;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--fingerprint")) opt.fingerprint = true;
    if (!std::strcmp(argv[i], "--eager")) opt.eager = true;
  }

  if (opt.fingerprint) {
    // One deterministic line capturing both the physics (bitwise checksum,
    // conservation, halo totals) and the schedule (elapsed virtual nanos,
    // ticket count with rebalance on). Golden: tests/golden/dpd3d_skew.golden.
    Config cfg = skewed_config();
    cfg.rebalance = true;
    const int nodes = 3;
    const Result d = run(nodes, cfg, true, opt.eager);
    std::printf(
        "dpd3d skew fingerprint nodes=%d ranks=%d iters=%d elapsed_ns=%.0f "
        "particles=%lld checksum=%.17g mom=%.17g,%.17g,%.17g peak=%d "
        "halo=%lld violations=%lld tickets=%lld imbalance=%.6f\n",
        nodes, nodes * cfg.cells_per_node, cfg.iterations,
        sim::to_nanos(d.elapsed), static_cast<long long>(d.total_particles),
        d.checksum, d.momentum_x, d.momentum_y, d.momentum_z, d.max_cell_count,
        static_cast<long long>(d.halo_received_total),
        static_cast<long long>(d.halo_violations),
        static_cast<long long>(d.work_tickets), mean(d.iter_imbalance));
    return 0;
  }

  bench::trace_sink().parse_args(argc, argv);
  bench::header("DPD 3-D", "27-direction halo exchange, uniform vs skewed density");
  const Config uni = base_config();
  const double scale = 100.0 / uni.iterations;  // report per-100-iteration ms

  std::printf("# weak scaling, uniform density (%d cells/node, %d particles/cell)\n",
              uni.cells_per_node, uni.particles_per_cell);
  bench::row({"nodes", "dcuda_ms", "mpi_cuda_ms", "halo_exchange_ms"});
  for (int nodes : {1, 2, 3, 4}) {
    const bool trace = nodes == 4 && bench::trace_sink().enabled();
    Result d, m, h;
    {
      sim::MachineConfig machine = bench::machine(nodes);
      if (opt.eager) machine.rma.eager_threshold = 2048;
      Cluster c({.machine = machine, .ranks_per_device = uni.cells_per_node});
      if (trace) c.tracer().enable();
      d = apps::dpd3d::run_dcuda(c, uni);
      if (trace) bench::trace_sink().add("dCUDA 4 nodes", c.tracer());
    }
    m = run(nodes, uni, false, opt.eager);
    {
      Config hx = uni;
      hx.compute = false;
      h = run(nodes, hx, false, opt.eager);
    }
    bench::row({bench::fmt(nodes, "%.0f"),
                bench::fmt(sim::to_millis(d.elapsed) * scale),
                bench::fmt(sim::to_millis(m.elapsed) * scale),
                bench::fmt(sim::to_millis(h.elapsed) * scale)});
  }

  const Config skew = skewed_config();
  std::printf("# weak scaling, skewed density (drifting blob, drift=%.2f)\n",
              skew.skew_drift);
  bench::row({"nodes", "dcuda_ms", "mpi_cuda_ms", "imbalance"});
  for (int nodes : {1, 2, 3, 4}) {
    const Result d = run(nodes, skew, true, opt.eager);
    const Result m = run(nodes, skew, false, opt.eager);
    bench::row({bench::fmt(nodes, "%.0f"),
                bench::fmt(sim::to_millis(d.elapsed) * scale),
                bench::fmt(sim::to_millis(m.elapsed) * scale),
                bench::fmt(mean(d.iter_imbalance))});
  }

  std::printf("# strong scaling, fixed 24-cell skewed domain\n");
  bench::row({"nodes", "cells_node", "dcuda_ms", "mpi_cuda_ms"});
  for (int nodes : {1, 2, 3}) {
    Config cfg = skew;
    cfg.cells_per_node = 24 / nodes;
    cfg.record_load = false;
    const Result d = run(nodes, cfg, true, opt.eager);
    const Result m = run(nodes, cfg, false, opt.eager);
    bench::row({bench::fmt(nodes, "%.0f"), bench::fmt(cfg.cells_per_node, "%.0f"),
                bench::fmt(sim::to_millis(d.elapsed) * scale),
                bench::fmt(sim::to_millis(m.elapsed) * scale)});
  }

  std::printf("# eager ablation, skewed, 3 nodes (halo puts are eager-path food)\n");
  bench::row({"eager_threshold", "dcuda_ms"});
  for (int threshold : {0, 2048}) {
    sim::MachineConfig machine = bench::machine(3);
    machine.rma.eager_threshold = static_cast<std::size_t>(threshold);
    Cluster c({.machine = machine, .ranks_per_device = skew.cells_per_node});
    const Result d = apps::dpd3d::run_dcuda(c, skew);
    bench::row({bench::fmt(threshold, "%.0f"),
                bench::fmt(sim::to_millis(d.elapsed) * scale)});
  }

  std::printf("# rails ablation, skewed, 3 nodes\n");
  bench::row({"rails", "dcuda_ms"});
  for (int rails : {1, 2}) {
    sim::MachineConfig machine = bench::machine(3);
    if (opt.eager) machine.rma.eager_threshold = 2048;
    machine.net.topo.rails = rails;
    Cluster c({.machine = machine, .ranks_per_device = skew.cells_per_node});
    const Result d = apps::dpd3d::run_dcuda(c, skew);
    bench::row({bench::fmt(rails, "%.0f"),
                bench::fmt(sim::to_millis(d.elapsed) * scale)});
  }

  std::printf("# rebalance ablation, skewed, 3 nodes (physics bitwise unchanged)\n");
  bench::row({"rebalance", "dcuda_ms", "tickets", "checksum"});
  for (int rb : {0, 1}) {
    Config cfg = skew;
    cfg.rebalance = rb != 0;
    const Result d = run(3, cfg, true, opt.eager);
    bench::row({bench::fmt(rb, "%.0f"),
                bench::fmt(sim::to_millis(d.elapsed) * scale),
                bench::fmt(static_cast<double>(d.work_tickets), "%.0f"),
                bench::fmt(d.checksum, "%.9f")});
  }

  bench::trace_sink().finish();
  return 0;
}
