#include "apps/stencil.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "sim/config.h"

namespace dcuda::apps::stencil {

namespace {

// Stencil math shared by all variants (and the serial reference). Zero
// boundary conditions in i; j neighbors come from halos.
//
// Each row kernel walks one contiguous i-row per (j, k) through row
// pointers. The points whose i-neighbor falls off the grid (i = 0, i = isize - 1) are
// peeled and evaluate the interior expression with a literal 0.0 for the
// missing neighbor, so the interior loops carry no bounds checks and
// vectorize. Every point performs the same operations in the same order as
// a bounds-checked form that reads 0.0 outside [0, isize): the results are
// bit-identical (tests/stencil_test.cpp keeps that form as an oracle).

double lap_point(double c, double east, double west, double north, double south) {
  return 4.0 * c - east - west - north - south;
}

// Limited flux across a face: zero where it has the sign of `in`'s difference
// across that face.
double flux_point(double lap_far, double lap_near, double in_far, double in_near) {
  const double f = lap_far - lap_near;
  return f * (in_far - in_near) > 0.0 ? 0.0 : f;
}

double out_point(double in, double coeff, double flx, double flx_west, double fly,
                 double fly_south) {
  return in - coeff * (flx - flx_west + fly - fly_south);
}

// Row kernels: one i-row of lap, fly or out. They are the only arithmetic;
// the line loops below and the fused sweep call them. On x86-64 each is built
// twice, for AVX2 and for baseline x86-64, and the loader picks the clone the
// host runs. The avx2 target enables no FMA (and src/CMakeLists.txt turns
// contraction off), so both clones perform every point's IEEE operations as
// written and the results are bit-identical. ThreadSanitizer builds keep
// the baseline kernels only: GCC instruments the clones' ifunc resolver,
// which runs at load time, before the TSan runtime is up, and crashes.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__)
#define STENCIL_ROW_KERNEL __attribute__((target_clones("avx2", "default")))
#else
#define STENCIL_ROW_KERNEL
#endif

STENCIL_ROW_KERNEL
void lap_row(const double* __restrict c, const double* __restrict n,
             const double* __restrict s, double* __restrict l, int isize) {
  const int last = isize - 1;
  l[0] = lap_point(c[0], last > 0 ? c[1] : 0.0, 0.0, n[0], s[0]);
  for (int i = 1; i < last; ++i) l[i] = lap_point(c[i], c[i + 1], c[i - 1], n[i], s[i]);
  if (last > 0) l[last] = lap_point(c[last], 0.0, c[last - 1], n[last], s[last]);
}

// `cn` and `ln`: the in and lap rows of the next j-line.
STENCIL_ROW_KERNEL
void fly_row(const double* __restrict c, const double* __restrict cn,
             const double* __restrict l, const double* __restrict ln,
             double* __restrict fy, int isize) {
  for (int i = 0; i < isize; ++i) fy[i] = flux_point(ln[i], l[i], cn[i], c[i]);
}

// Computes the row's flx into `fx` (isize doubles) and then the row's out
// from it: flx is read only by its own row, so it needs no array. `fys`: the
// fly row of the previous j-line. `o` may be `c` (out written in place over
// in): o[i] is written after the last read of c[i], so these two carry no
// __restrict.
STENCIL_ROW_KERNEL
void out_row(const double* c, const double* __restrict l, const double* __restrict fy,
             const double* __restrict fys, double* __restrict fx, double* o, double coeff,
             int isize) {
  const int last = isize - 1;
  for (int i = 0; i < last; ++i) fx[i] = flux_point(l[i + 1], l[i], c[i + 1], c[i]);
  fx[last] = flux_point(0.0, l[last], 0.0, c[last]);
  o[0] = out_point(c[0], coeff, fx[0], 0.0, fy[0], fys[0]);
  for (int i = 1; i <= last; ++i) o[i] = out_point(c[i], coeff, fx[i], fx[i - 1], fy[i], fys[i]);
}

// Line loops: one j-line (ksize consecutive rows). `in` points at the line
// and is read one line further on each side. The j-neighbour lines of lap (in
// compute_fly) and fly (in compute_out) come as pointers of their own, so a
// loop runs as well on a field's lines as on single lines held elsewhere.
void compute_lap(const double* in, double* lap, const Geometry& g) {
  const std::size_t js = g.jstride();
  for (std::size_t r = 0; r < js; r += g.kstride())
    lap_row(in + r, in + r + js, in + r - js, lap + r, g.isize);
}

void compute_fly(const double* in, const double* lap, const double* lap_north, double* fly,
                 const Geometry& g) {
  const std::size_t js = g.jstride();
  for (std::size_t r = 0; r < js; r += g.kstride())
    fly_row(in + r, in + r + js, lap + r, lap_north + r, fly + r, g.isize);
}

void compute_out(const double* in, const double* lap, const double* fly,
                 const double* fly_south, double* fx, double* out, double coeff,
                 const Geometry& g) {
  for (std::size_t r = 0; r < g.jstride(); r += g.kstride())
    out_row(in + r, lap + r, fly + r, fly_south + r, fx, out + r, coeff, g.isize);
}

// An iteration over lines [0, g.jdev) of a field whose line 0 is at `in`
// runs three steps, in every variant:
//   1. compute_lap of line 0, `lap_bottom` (sent down);
//   2. compute_top_fly: fly of line jdev-1, `fly_top` (sent up);
//   3. fused_sweep: the rest of the iteration, reading both lines.

// Step 2. fly of line jdev-1 reads lap of that line and of line jdev
// (`lap_top`). The former is `lap_bottom` when the field has one line, and
// is computed into `tmp` (one line) otherwise.
void compute_top_fly(const double* in, const double* lap_bottom, const double* lap_top,
                     double* fly_top, double* tmp, const Geometry& g) {
  const double* top = in + static_cast<std::size_t>(g.jdev - 1) * g.jstride();
  if (g.jdev > 1) compute_lap(top, tmp, g);
  compute_fly(top, g.jdev > 1 ? tmp : lap_bottom, lap_top, fly_top, g);
}

// Doubles of the fused sweep's scratch: two rolling lap lines, two rolling
// fly lines and the flx row.
std::size_t sweep_elems(const Geometry& g) {
  return 4 * g.jstride() + static_cast<std::size_t>(g.isize);
}

// Step 3: the rest of the iteration in a single pass over j: lap line j+1,
// then fly and out of line j. The lines steps 1 and 2 computed come in:
// `lap_bottom` is lap's line 0 and `fly_top` fly's line jdev-1; `fly_bottom`
// is fly's line -1. The lap and fly lines between live in the rolling lines
// of `scratch` (sweep_elems(g) doubles, which stay in cache). `in` and `out`
// point at line 0 of their fields and may be equal: out's line j is written
// after lap(j+1) and fly(j), the last reads of in's line j; the caller
// computed `lap_bottom` and `fly_top` from the same `in`. Every point sees the
// operands of the phase-by-phase stencil, so the results are bit-identical
// to it. The caller owns `scratch` and must not share it with a sweep that
// can run concurrently (ranks on different shards do when threads > 1).
void fused_sweep(const double* in, double* out, const double* lap_bottom,
                 const double* fly_bottom, const double* fly_top, std::span<double> scratch,
                 double coeff, const Geometry& g) {
  assert(scratch.size() == sweep_elems(g));
  const std::size_t js = g.jstride();
  double* lap[2] = {scratch.data(), scratch.data() + js};
  double* fly[2] = {scratch.data() + 2 * js, scratch.data() + 3 * js};
  double* fx = scratch.data() + 4 * js;
  const double* l = lap_bottom;
  const double* fly_south = fly_bottom;
  const int top = g.jdev - 1;
  for (int j = 0; j < top; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * js;
    double* ln = lap[j & 1];
    double* fy = fly[j & 1];
    compute_lap(in + off + js, ln, g);
    compute_fly(in + off, l, ln, fy, g);
    compute_out(in + off, l, fy, fly_south, fx, out + off, coeff, g);
    l = ln;
    fly_south = fy;
  }
  const std::size_t off = static_cast<std::size_t>(top) * js;
  compute_out(in + off, l, fly_top, fly_south, fx, out + off, coeff, g);
}

// First element of line j of a device array.
double* line(std::span<double> field, const Geometry& g, int j) {
  return &field[g.at(0, j, 0)];
}

// Initial condition over lines j in [-1, g.jdev] of a device whose line 0 is
// global line `jbase` (halo lines included; zero outside [0, jtotal)).
// std::sin depends only on i, so it is taken once per column; each point then
// evaluates initial_value's expression in initial_value's order.
void fill_initial(std::span<double> in, const Geometry& g, int jbase, int jtotal) {
  std::vector<double> sin_row(static_cast<std::size_t>(g.isize));
  for (int i = 0; i < g.isize; ++i) sin_row[static_cast<std::size_t>(i)] = std::sin(0.1 * i);
  for (int j = -1; j <= g.jdev; ++j)
    for (int k = 0; k < g.ksize; ++k) {
      const int jg = jbase + j;
      double* row = &in[g.at(0, j, k)];
      for (int i = 0; i < g.isize; ++i)
        row[i] = jg >= 0 && jg < jtotal
                     ? sin_row[static_cast<std::size_t>(i)] + 0.01 * jg + 0.001 * k
                     : 0.0;
    }
}

// Adds lines [0, g.jdev) of `field` to `sum` in (k, j, i) order, the order
// that fixes every checksum's bits.
void add_owned(double& sum, std::span<const double> field, const Geometry& g) {
  for (int k = 0; k < g.ksize; ++k)
    for (int j = 0; j < g.jdev; ++j)
      for (int i = 0; i < g.isize; ++i) sum += field[g.at(i, j, k)];
}

// Simulated cost of one compute phase over `lines` j-lines: `passes` array
// passes of memory traffic plus `flops_per_point` arithmetic.
sim::Proc<void> charge_phase(gpu::BlockCtx& blk, const Config& cfg, int lines,
                             double passes, double flops_per_point) {
  const double points = static_cast<double>(cfg.isize) * lines * cfg.ksize;
  co_await blk.compute_flops(points * (flops_per_point + cfg.extra_flops_per_point));
  co_await blk.mem_traffic(points * sizeof(double) * passes);
}

// One device's fields. `in` is a full array holding the initial values;
// lap and fly hold `lap_fly_elems` doubles each and out `out_elems`. Only
// the lines a variant stores are allocated: glibc may serve a large calloc
// from a recycled block and zero all of it, so an untouched full array can
// still be resident.
struct DeviceArrays {
  std::span<double> in, lap, fly, out;
};

DeviceArrays make_arrays(gpu::Device& dev, const Geometry& g, std::size_t lap_fly_elems,
                         std::size_t out_elems, int node_jbase, int jtotal) {
  DeviceArrays a;
  a.in = dev.alloc<double>(g.elems());
  a.lap = dev.alloc<double>(lap_fly_elems);
  a.fly = dev.alloc<double>(lap_fly_elems);
  a.out = dev.alloc<double>(out_elems);
  // Device::alloc zero-fills, so only the initial values need writing.
  // Owned lines plus valid neighbor halos (boilerplate initialization).
  fill_initial(a.in, g, node_jbase, jtotal);
  return a;
}

// Throws unless the shape is valid and its arithmetic fits: isize * ksize
// and the global line count (plus two halo lines) in an int, a full array's
// bytes in a ptrdiff_t. Runs before anything is allocated.
void validate(const Config& cfg, int num_nodes, int rpd) {
  if (cfg.isize < 1 || cfg.jlocal < 1 || cfg.ksize < 1 || cfg.iterations < 0)
    throw ConfigError("stencil needs isize, jlocal and ksize >= 1 and iterations >= 0");
  if (num_nodes < 1 || rpd < 1)
    throw ConfigError("stencil needs num_nodes and ranks_per_device >= 1");
  constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
  const std::int64_t jstride = std::int64_t{cfg.isize} * cfg.ksize;
  const std::int64_t jdev = std::int64_t{rpd} * cfg.jlocal;
  if (jstride > kMaxInt || jdev > kMaxInt || num_nodes * jdev > kMaxInt - 2 ||
      jstride * (num_nodes * jdev + 2) >
          std::numeric_limits<std::ptrdiff_t>::max() / std::int64_t{sizeof(double)})
    throw ConfigError("stencil grid too large: isize * ksize and the global j-line count "
                      "must fit an int");
}

}  // namespace

double initial_value(int i, int jg, int k) {
  if (jg < 0) return 0.0;  // global zero boundary (also used for halos)
  return std::sin(0.1 * i) + 0.01 * jg + 0.001 * k;
}

std::vector<double> reference(const Config& cfg, int num_nodes, int rpd) {
  validate(cfg, num_nodes, rpd);
  const int jtotal = num_nodes * rpd * cfg.jlocal;
  Geometry g{cfg.isize, jtotal, cfg.ksize};  // one "device" spanning all
  // lap's line jtotal and fly's line -1 are zero (global boundary), as are
  // the field's halo lines, which the in-place sweep never writes.
  const std::size_t js = g.jstride();
  const std::vector<double> zero_line(js, 0.0);
  std::vector<double> field(g.elems(), 0.0), edges(2 * js), scratch(sweep_elems(g));
  double* const lap_bottom = edges.data();
  double* const fly_top = lap_bottom + js;
  fill_initial(field, g, 0, jtotal);
  for (int it = 0; it < cfg.iterations; ++it) {
    double* const in = line(field, g, 0);
    compute_lap(in, lap_bottom, g);
    compute_top_fly(in, lap_bottom, zero_line.data(), fly_top, scratch.data(), g);
    fused_sweep(in, in, lap_bottom, zero_line.data(), fly_top, scratch, cfg.diffusion_coeff,
                g);
  }
  return field;
}

double reference_checksum(const Config& cfg, int num_nodes, int rpd) {
  const std::vector<double> final_in = reference(cfg, num_nodes, rpd);
  const int jtotal = num_nodes * rpd * cfg.jlocal;
  const Geometry g{cfg.isize, jtotal, cfg.ksize};
  double sum = 0.0;
  add_owned(sum, final_in, g);
  return sum;
}

Result run_dcuda(Cluster& cluster, const Config& cfg) {
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  validate(cfg, nodes, rpd);
  const Geometry g{cfg.isize, rpd * cfg.jlocal, cfg.ksize};
  const Geometry rank_g{cfg.isize, cfg.jlocal, cfg.ksize};  // one rank's lines
  const std::size_t js = g.jstride();
  // in and out are full arrays. lap and fly store only the lines their
  // exchanges send, one slot per rank plus one for the neighbour device:
  // lap slot r holds rank r's bottom line (sent down) and slot rpd the next
  // device's; fly slot r+1 holds rank r's top line (sent up) and slot 0 the
  // previous device's. A rank reads lap slot r+1 and fly slot r, so every
  // in-device put lands on the sender's own slot.
  const std::size_t slots_elems = static_cast<std::size_t>(rpd + 1) * js;
  std::vector<DeviceArrays> dev(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n)
    dev[static_cast<size_t>(n)] =
        make_arrays(cluster.device(n), g, slots_elems, g.elems(), n * g.jdev, nodes * g.jdev);
  // One sweep scratch per node: a node's ranks run on one shard, and no rank
  // suspends while it computes.
  std::vector<std::vector<double>> scratch(
      static_cast<size_t>(nodes), std::vector<double>(cfg.compute ? sweep_elems(g) : 0));

  const std::size_t line_elems = static_cast<size_t>(g.isize);
  const double phase_flops[3] = {5.0, 12.0, 9.0};
  const double phase_passes[3] = {2.0, 4.0, 4.0};

  Result res;
  res.elapsed = cluster.run([&](Context& ctx) -> sim::Proc<void> {
    const int grank = comm_rank(ctx, kCommWorld);
    const int gsize = comm_size(ctx, kCommWorld);
    const int node_id = ctx.node->node();
    const int r = ctx.device_rank;
    DeviceArrays& a = dev[static_cast<size_t>(node_id)];
    std::vector<double>& sweep = scratch[static_cast<size_t>(node_id)];
    // Double-buffered in/out field spans + windows.
    std::span<double> f_in = a.in, f_out = a.out;

    Window win = co_await win_create(ctx, kCommWorld, f_in);
    Window wout = co_await win_create(ctx, kCommWorld, f_out);
    Window wlap = co_await win_create(ctx, kCommWorld, a.lap);
    Window wfly = co_await win_create(ctx, kCommWorld, a.fly);

    const bool has_down = grank > 0;       // neighbor at smaller j
    const bool has_up = grank + 1 < gsize; // neighbor at larger j
    const int jb = r * cfg.jlocal;         // device-local bottom owned line
    const int jt = jb + cfg.jlocal - 1;    // top owned line

    // Sends one j-line (all k levels, one put per level, last one notified)
    // from element `my_off` of `span` to element `target_off` of the
    // neighbor's window. In-device targets resolve to the same address:
    // zero-copy, notification only.
    auto send_line = [&](Window w, std::span<double> span, int target_rank,
                         std::size_t my_off, std::size_t target_off,
                         int tag) -> sim::Proc<void> {
      for (int k = 0; k < g.ksize; ++k) {
        const std::size_t row_off = static_cast<std::size_t>(k) * g.kstride();
        const std::span<const double> row = span.subspan(my_off + row_off, line_elems);
        if (k + 1 < g.ksize) {
          co_await put(ctx, w, target_rank, target_off + row_off, row);
        } else {
          co_await put_notify(ctx, w, target_rank, target_off + row_off, row, tag);
        }
      }
    };
    auto slot = [&](int s) { return static_cast<std::size_t>(s) * js; };
    double* const lap_bottom = a.lap.data() + slot(r);   // sent down
    const double* const lap_north = a.lap.data() + slot(r + 1);
    const double* const fly_south = a.fly.data() + slot(r);
    double* const fly_top = a.fly.data() + slot(r + 1);  // sent up
    // Targets of my boundary lines in the receiving device's windows.
    // In-device, the very same line (zero-copy overlap); across devices, the
    // neighbor's halo line or slot.
    const std::size_t lap_tgt = slot(r > 0 ? r : rpd);
    const std::size_t fly_tgt = slot(r + 1 < rpd ? r + 1 : 0);
    const std::size_t out_down_tgt = g.at(0, r > 0 ? jb : g.jdev, 0);
    const std::size_t out_up_tgt = g.at(0, r + 1 < rpd ? jt : -1, 0);

    for (int it = 0; it < cfg.iterations; ++it) {
      // Phase 1: lap of the bottom line; send it down.
      if (cfg.compute) {
        compute_lap(line(f_in, g, jb), lap_bottom, g);
        co_await charge_phase(*ctx.block, cfg, cfg.jlocal, phase_passes[0],
                              phase_flops[0]);
      }
      if (cfg.exchange) {
        if (has_down) {
          co_await send_line(wlap, a.lap, grank - 1, slot(r), lap_tgt, 0);
        }
        co_await wait_notifications(ctx, wlap, kAnySource, 0, has_up ? 1 : 0);
      }

      // Phase 2: fly of the top line (its lap in scratch, or lap slot r at
      // one line per rank); send it up.
      if (cfg.compute) {
        compute_top_fly(line(f_in, g, jb), lap_bottom, lap_north, fly_top, sweep.data(),
                        rank_g);
        co_await charge_phase(*ctx.block, cfg, cfg.jlocal, phase_passes[1],
                              phase_flops[1]);
      }
      if (cfg.exchange) {
        if (has_up) {
          co_await send_line(wfly, a.fly, grank + 1, slot(r + 1), fly_tgt, 1);
        }
        co_await wait_notifications(ctx, wfly, kAnySource, 1, has_down ? 1 : 0);
      }

      // Phase 3: the rest of the rank's iteration in one sweep into out,
      // reading lap slot r and fly slot r+1 as phases 1 and 2 left them:
      // only this rank writes those slots. Exchange out both directions,
      // swap.
      if (cfg.compute) {
        fused_sweep(line(f_in, g, jb), line(f_out, g, jb), lap_bottom, fly_south, fly_top,
                    sweep, cfg.diffusion_coeff, rank_g);
        co_await charge_phase(*ctx.block, cfg, cfg.jlocal, phase_passes[2],
                              phase_flops[2]);
      }
      if (cfg.exchange) {
        if (has_down) co_await send_line(wout, f_out, grank - 1, g.at(0, jb, 0), out_down_tgt, 2);
        if (has_up) co_await send_line(wout, f_out, grank + 1, g.at(0, jt, 0), out_up_tgt, 2);
        co_await wait_notifications(ctx, wout, kAnySource, 2,
                                    (has_down ? 1 : 0) + (has_up ? 1 : 0));
      }
      std::swap(f_in, f_out);
      std::swap(win, wout);
    }

    co_await win_free(ctx, win);
    co_await win_free(ctx, wout);
    co_await win_free(ctx, wlap);
    co_await win_free(ctx, wfly);
  });

  // Checksum over owned lines of the final field. Only phase 3 writes owned
  // lines, so the field lives in `out` after an odd number of computed
  // iterations and in `in` otherwise (an exchange-only run never leaves it).
  const bool final_out = cfg.compute && cfg.iterations % 2 == 1;
  for (int n = 0; n < nodes; ++n) {
    const DeviceArrays& a = dev[static_cast<size_t>(n)];
    add_owned(res.checksum, final_out ? a.out : a.in, g);
  }
  for (int n = 0; n < nodes; ++n)
    res.bytes_on_wire += static_cast<std::uint64_t>(cluster.fabric().bytes_sent(n));
  return res;
}

Result run_mpi_cuda(Cluster& cluster, const Config& cfg) {
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  validate(cfg, nodes, rpd);
  const Geometry g{cfg.isize, rpd * cfg.jlocal, cfg.ksize};
  const std::size_t js = g.jstride();
  std::vector<DeviceArrays> dev(static_cast<size_t>(nodes));
  std::vector<std::span<double>> sendbuf(static_cast<size_t>(nodes));
  std::vector<std::span<double>> recvbuf(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    // `in` is the one field array, swept in place. lap holds its lines 0 and
    // jdev, fly its lines -1 and jdev-1: the lines the exchanges send and
    // receive. out is a spare pair of halo lines (-1, jdev) that receives the
    // out exchange.
    dev[static_cast<size_t>(n)] =
        make_arrays(cluster.device(n), g, 2 * js, 2 * js, n * g.jdev, nodes * g.jdev);
    // Two packed buffers per direction.
    sendbuf[static_cast<size_t>(n)] = cluster.device(n).alloc<double>(2 * js);
    recvbuf[static_cast<size_t>(n)] = cluster.device(n).alloc<double>(2 * js);
  }

  const double phase_flops[3] = {5.0, 12.0, 9.0};
  const double phase_passes[3] = {2.0, 4.0, 4.0};

  Result res;
  res.elapsed = cluster.run_hosts([&](int n) -> sim::Proc<void> {
    gpu::Device& gd = cluster.device(n);
    mpi::Endpoint& ep = cluster.mpi(n);
    DeviceArrays& a = dev[static_cast<size_t>(n)];
    const std::span<double> field = a.in;
    const bool has_down = n > 0, has_up = n + 1 < nodes;
    double* const lap_bottom = a.lap.data();     // lap line 0, sent down
    double* const lap_top = lap_bottom + js;     // lap halo line jdev
    double* const fly_bottom = a.fly.data();     // fly halo line -1
    double* const fly_top = fly_bottom + js;     // fly line jdev-1, sent up
    double* const spare_bottom = a.out.data();   // receives out line -1
    double* const spare_top = spare_bottom + js; // receives out line jdev
    // Scratch of this host's kernels; their blocks run one at a time and
    // never suspend while computing.
    std::vector<double> scratch(cfg.compute ? sweep_elems(g) : 0);

    // Fork-join compute kernel over one phase. Every block charges its
    // jlocal lines; block 0 does the host arithmetic of the whole device:
    // the lap line sent down (`phase` 0), the fly line sent up (`phase` 1),
    // or the rest of the iteration in one fused sweep in place (`phase` 2).
    auto phase_kernel = [&](int phase) -> sim::Proc<void> {
      gpu::Kernel k = [&, phase](gpu::BlockCtx& blk) -> sim::Proc<void> {
        if (blk.block_id() == 0) {
          double* const in = line(field, g, 0);
          if (phase == 0) {
            compute_lap(in, lap_bottom, g);
          } else if (phase == 1) {
            compute_top_fly(in, lap_bottom, lap_top, fly_top, scratch.data(), g);
          } else {
            fused_sweep(in, in, lap_bottom, fly_bottom, fly_top, scratch, cfg.diffusion_coeff,
                        g);
          }
        }
        co_await charge_phase(blk, cfg, cfg.jlocal,
                              phase_passes[static_cast<size_t>(phase)],
                              phase_flops[static_cast<size_t>(phase)]);
      };
      co_await gd.launch(gpu::LaunchConfig{rpd, 128, 26}, std::move(k), "phase");
    };

    // One direction of a halo exchange: the boundary line sent and the halo
    // line the neighbour's mirrored line lands in. Null: not exchanged.
    struct HaloLines {
      const double* send = nullptr;
      double* recv = nullptr;
    };
    // Copies each boundary j-line (contiguous over all k levels) into a send
    // buffer (pack kernel), sends one message per direction and copies the
    // mirrored lines into the halo lines (unpack kernel). `down` sends a
    // bottom line downward and receives from up into a top halo; `up` sends
    // a top line upward and receives from down into a bottom halo.
    auto exchange_line = [&](HaloLines down, HaloLines up, int tag) -> sim::Proc<void> {
      const std::size_t halo_bytes = js * sizeof(double);
      auto pack = [&](const double* src, std::span<double> buf) -> sim::Proc<void> {
        gpu::Kernel k = [&, src, buf](gpu::BlockCtx& blk) -> sim::Proc<void> {
          if (blk.block_id() != 0) co_return;
          std::memcpy(buf.data(), src, halo_bytes);
          co_await blk.mem_traffic(2.0 * static_cast<double>(halo_bytes));
        };
        co_await gd.launch(gpu::LaunchConfig{rpd, 128, 26}, std::move(k), "pack");
      };
      auto unpack = [&](double* dst, std::span<double> buf) -> sim::Proc<void> {
        gpu::Kernel k = [&, dst, buf](gpu::BlockCtx& blk) -> sim::Proc<void> {
          if (blk.block_id() != 0) co_return;
          std::memcpy(dst, buf.data(), halo_bytes);
          co_await blk.mem_traffic(2.0 * static_cast<double>(halo_bytes));
        };
        co_await gd.launch(gpu::LaunchConfig{rpd, 128, 26}, std::move(k), "unpack");
      };

      const std::span<double> send_down = sendbuf[static_cast<size_t>(n)].first(js);
      const std::span<double> send_up = sendbuf[static_cast<size_t>(n)].last(js);
      const std::span<double> recv_up = recvbuf[static_cast<size_t>(n)].first(js);
      const std::span<double> recv_down = recvbuf[static_cast<size_t>(n)].last(js);
      mpi::Request r_up, r_down;
      std::array<mpi::Request, 2> sends;
      // Pre-post the receives for the mirrored lines.
      if (down.send && has_up) r_up = ep.irecv(n + 1, tag, gd.ref(recv_up));
      if (up.send && has_down) r_down = ep.irecv(n - 1, tag, gd.ref(recv_down));
      if (down.send && has_down) {
        co_await pack(down.send, send_down);
        sends[0] = ep.isend(n - 1, tag, gd.ref(send_down));
      }
      if (up.send && has_up) {
        co_await pack(up.send, send_up);
        sends[1] = ep.isend(n + 1, tag, gd.ref(send_up));
      }
      for (mpi::Request& rq : sends)
        if (rq.valid()) co_await rq.wait();
      if (r_up.valid()) {
        co_await r_up.wait();
        co_await unpack(down.recv, recv_up);
      }
      if (r_down.valid()) {
        co_await r_down.wait();
        co_await unpack(up.recv, recv_down);
      }
    };

    for (int it = 0; it < cfg.iterations; ++it) {
      if (cfg.compute) co_await phase_kernel(0);
      if (cfg.exchange) co_await exchange_line({lap_bottom, lap_top}, {}, 10 + it * 4);
      if (cfg.compute) co_await phase_kernel(1);
      if (cfg.exchange) co_await exchange_line({}, {fly_top, fly_bottom}, 11 + it * 4);
      if (cfg.compute) co_await phase_kernel(2);
      if (cfg.exchange) {
        co_await exchange_line({line(field, g, 0), spare_top},
                               {line(field, g, g.jdev - 1), spare_bottom}, 12 + it * 4);
      }
      // The received halos become the field's; its old ones wait for the
      // next exchange. Without one (compute only), iterations thus alternate
      // between the initial and the zero halos, as with separate in and out
      // arrays: the pinned compute-only results depend on it.
      std::swap_ranges(spare_bottom, spare_bottom + js, line(field, g, -1));
      std::swap_ranges(spare_top, spare_top + js, line(field, g, g.jdev));
    }
  });

  for (int n = 0; n < nodes; ++n) add_owned(res.checksum, dev[static_cast<size_t>(n)].in, g);
  for (int n = 0; n < nodes; ++n)
    res.bytes_on_wire += static_cast<std::uint64_t>(cluster.fabric().bytes_sent(n));
  return res;
}

}  // namespace dcuda::apps::stencil
