// Weak scaling of the sharded parallel engine (docs/PERF.md, "Parallel
// engine"): stencil and SpMV runs at 16 and 64 nodes with constant
// per-node work. The interesting number is simulated milliseconds per
// iteration — under weak scaling it must stay nearly flat as the cluster
// grows, since every node computes the same patch and only talks to its
// neighbours. A blow-up here means the engine (or the machine model)
// serializes something that should scale.
//
// Output: a human table on stdout (the weak_scaling golden cases). A
// 64-vs-16-node stencil flatness above 2x fails the run: a loose bar the
// deterministic model sits far below, so crossing it means a serialization
// bug.
//
// Env: DCUDA_WEAK_NODES=<n> appends one extra cluster size (the 256-node
//      run documented in EXPERIMENTS.md; 0 appends none, and any other
//      n must be a square, since SpMV runs on a square node grid);
//      DCUDA_THREADS/DCUDA_SHARDS pick the executor layout as everywhere
//      else (results are identical for every setting — only wall-clock
//      time changes).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/spmv.h"
#include "apps/stencil.h"
#include "bench/common.h"

namespace {

// Small per-node problem: weak scaling is about node count, not patch
// size, and the 64-node run must stay tractable in a CI container.
constexpr int kRanksPerDevice = 4;

struct Point {
  int nodes = 0;
  double stencil_ms = 0.0;
  double spmv_ms = 0.0;
};

Point measure(int nodes, int iters) {
  using namespace dcuda;
  Point p;
  p.nodes = nodes;
  {
    apps::stencil::Config cfg;
    cfg.isize = 16;
    cfg.jlocal = 2;
    cfg.ksize = 4;
    cfg.iterations = iters;
    Cluster c({.machine = bench::machine(nodes), .ranks_per_device = kRanksPerDevice});
    p.stencil_ms = sim::to_millis(apps::stencil::run_dcuda(c, cfg).elapsed);
  }
  {
    apps::spmv::Config cfg;
    cfg.n_dev = 64;  // divisible by ranks-per-device
    cfg.density = 0.02;
    cfg.iterations = iters;
    Cluster c({.machine = bench::machine(nodes), .ranks_per_device = kRanksPerDevice});
    p.spmv_ms = sim::to_millis(apps::spmv::run_dcuda(c, cfg).elapsed);
  }
  return p;
}

}  // namespace

int main() {
  using namespace dcuda;
  const int iters = bench::iterations(4);
  std::vector<int> sizes = {16, 64};
  if (const int n = bench::env_int("DCUDA_WEAK_NODES", 0, 0); n > 0) {
    // SpMV distributes over a square node grid; reject before any run.
    const int side = static_cast<int>(std::lround(std::sqrt(n)));
    if (side * side != n) {
      bench::bad_env("DCUDA_WEAK_NODES", std::to_string(n).c_str(),
                     "expected 0 or a square node count: 1, 4, 9, ...");
    }
    sizes.push_back(n);
  }
  std::vector<Point> pts;
  pts.reserve(sizes.size());
  for (int n : sizes) pts.push_back(measure(n, iters));
  const Point& base = pts.front();
  const Point& big = pts[1];
  const double stencil_flatness = big.stencil_ms / base.stencil_ms;

  bench::header("Weak scaling", "sharded engine, constant per-node work");
  bench::row({"nodes", "stencil_ms", "spmv_ms"});
  for (const Point& p : pts) {
    bench::row({bench::fmt(p.nodes, "%.0f"), bench::fmt(p.stencil_ms),
                bench::fmt(p.spmv_ms)});
  }
  std::printf("# flatness 64 vs 16 nodes: stencil %.3fx, spmv %.3fx\n",
              stencil_flatness, big.spmv_ms / base.spmv_ms);
  bench::require(stencil_flatness <= 2.0,
                 "stencil 64-node weak-scaling blow-up " +
                     bench::fmt(stencil_flatness) + "x > 2x");
  return 0;
}
