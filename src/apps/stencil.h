#pragma once

// Mini-application 2 (§IV-C): simplified COSMO horizontal diffusion.
//
// Four dependent stencils (lap, flx, fly, out) applied to a 3-D regular grid
// with a limited number of vertical levels, stored j-major: i fastest, then
// k, then j, so one j-line across all levels is contiguous. One-dimensional
// domain decomposition along j; every rank owns an ij-patch covering the
// full i-dimension, one contiguous block of its lines x all levels; halos
// are one j-line per vertical level.
//
// Main loop: three compute phases, each followed by a halo exchange; four
// stencils and four one-point halos per iteration:
//   phase 1: lap   (consumes in  j+-1)  -> exchange lap (down)
//   phase 2: fly   (consumes lap j+1)   -> exchange fly (up)
//   phase 3: flx, out (out consumes fly j-1) -> exchange out (both)
// flx is never exchanged and only its own row's out reads it, so phase 3
// computes it one row at a time into a scratch row instead of an array.
//
// The dCUDA variant sends one message per vertical level (the paper's 26
// separate 1 kB messages); the MPI-CUDA variant packs each halo into a
// continuous communication buffer and sends a single 16 kB message.
//
// Host arithmetic: every variant and the serial reference run the same three
// steps over a run of lines. Phase 1 computes only the lap line sent down
// (line 0) and phase 2 only the fly line sent up (the top line); phase 3
// runs one fused sweep over the rest of the iteration in a single pass over
// j (lap line j+1, then fly and out of line j, lap and fly in two rolling
// lines each), reading the two lines phases 1 and 2 computed instead of
// computing them again. The sweep runs per device for MPI-CUDA and per rank
// for dCUDA. So lap and fly store only their exchanged lines: two each per
// MPI-CUDA device, one slot per dCUDA rank plus one halo slot. MPI-CUDA and
// the serial reference sweep in place over one field array; dCUDA's windows
// keep in and out double-buffered. The row kernels are built for AVX2 and
// baseline x86-64 (no FMA in either). Every point sees the same operands in
// every variant, so the fields are bit-identical, and every simulated charge
// and message is unchanged.

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "sim/proc.h"

namespace dcuda::apps::stencil {

struct Config {
  int isize = 128;          // i extent (full width per rank), 1 kB lines
  int jlocal = 2;           // j lines per rank
  int ksize = 16;           // vertical levels (16 kB packed halos)
  int iterations = 100;
  double diffusion_coeff = 0.1;
  // Runtime switches (§IV-B methodology): disable phases independently.
  bool compute = true;
  bool exchange = true;
  // Extra compute per point per iteration (Fig. 7/8 style overlap sweeps).
  double extra_flops_per_point = 0.0;
};

struct Result {
  sim::Dur elapsed = 0.0;   // simulated time of the measured region
  double checksum = 0.0;    // sum over the final field (validation)
  std::uint64_t bytes_on_wire = 0;
};

// Grid geometry helpers shared by all variants.
struct Geometry {
  int isize, jdev, ksize;  // jdev: j-lines owned by one device
  int line_elems() const { return isize; }
  // Device array: jdev lines + one halo line on each side, all k levels.
  // j-major: the k levels of one j-line are adjacent rows of isize.
  std::size_t kstride() const { return static_cast<std::size_t>(isize); }
  std::size_t jstride() const { return kstride() * static_cast<std::size_t>(ksize); }
  std::size_t elems() const { return jstride() * static_cast<std::size_t>(jdev + 2); }
  // Element index of (i, j, k) with j in [-1, jdev] (halo lines at -1, jdev).
  std::size_t at(int i, int j, int k) const {
    return static_cast<std::size_t>(i) + static_cast<std::size_t>(k) * kstride() +
           static_cast<std::size_t>(j + 1) * jstride();
  }
};

// Serial reference on the global grid (zero boundary conditions), for
// validation of both parallel variants.
//
// Every entry point throws dcuda::ConfigError, before it allocates, unless
// isize, jlocal, ksize, num_nodes and ranks_per_device are >= 1, iterations
// >= 0, and isize * ksize and the global j-line count fit an int.
std::vector<double> reference(const Config& cfg, int num_nodes, int ranks_per_device);

// Initial condition for global j-line row `jg` (deterministic).
double initial_value(int i, int jg, int k);

// Runs the dCUDA variant on the cluster. The cluster must be freshly
// constructed (one measurement per cluster).
Result run_dcuda(Cluster& cluster, const Config& cfg);

// Runs the MPI-CUDA variant (fork-join kernels + two-sided MPI).
Result run_mpi_cuda(Cluster& cluster, const Config& cfg);

// Checksum of the reference solution restricted to the full grid.
double reference_checksum(const Config& cfg, int num_nodes, int ranks_per_device);

}  // namespace dcuda::apps::stencil
