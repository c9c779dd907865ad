#include "apps/stencil.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "baseline/mpi_cuda.h"
#include "sim/config.h"

namespace dcuda::apps::stencil {

namespace {

// Stencil math shared by all variants (and the serial reference). Zero
// boundary conditions in i; j neighbors come from halos.
//
// Each kernel walks one contiguous i-row per (j, k) through row pointers.
// The points whose i-neighbor falls off the grid (i = 0, i = isize - 1) are
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

void compute_lap(std::span<const double> in, std::span<double> lap, const Geometry& g,
                 int j0, int j1) {
  const int last = g.isize - 1;
  for (int j = j0; j < j1; ++j)
    for (int k = 0; k < g.ksize; ++k) {
      const std::size_t row = g.at(0, j, k);
      const double* __restrict c = &in[row];
      const double* __restrict n = c + g.jstride();
      const double* __restrict s = c - g.jstride();
      double* __restrict l = &lap[row];
      l[0] = lap_point(c[0], last > 0 ? c[1] : 0.0, 0.0, n[0], s[0]);
      for (int i = 1; i < last; ++i) l[i] = lap_point(c[i], c[i + 1], c[i - 1], n[i], s[i]);
      if (last > 0) l[last] = lap_point(c[last], 0.0, c[last - 1], n[last], s[last]);
    }
}

void compute_fly(std::span<const double> in, std::span<const double> lap,
                 std::span<double> fly, const Geometry& g, int j0, int j1) {
  for (int j = j0; j < j1; ++j)
    for (int k = 0; k < g.ksize; ++k) {
      const std::size_t row = g.at(0, j, k);
      const double* __restrict c = &in[row];
      const double* __restrict l = &lap[row];
      const double* __restrict ln = l + g.jstride();
      const double* __restrict cn = c + g.jstride();
      double* __restrict fy = &fly[row];
      for (int i = 0; i < g.isize; ++i) fy[i] = flux_point(ln[i], l[i], cn[i], c[i]);
    }
}

// Computes each row's flx into `flx_row` (isize doubles) and then the row's
// out from it: flx is read only by its own row, so it needs no array. The
// caller owns `flx_row` and must not share it with a rank that can run
// concurrently (ranks on different shards do when threads > 1).
void compute_out(std::span<const double> in, std::span<const double> lap,
                 std::span<const double> fly, std::span<double> out,
                 std::span<double> flx_row, double coeff, const Geometry& g, int j0,
                 int j1) {
  assert(flx_row.size() == static_cast<std::size_t>(g.isize));
  const int last = g.isize - 1;
  double* __restrict fx = flx_row.data();
  for (int j = j0; j < j1; ++j)
    for (int k = 0; k < g.ksize; ++k) {
      const std::size_t row = g.at(0, j, k);
      const double* __restrict c = &in[row];
      const double* __restrict l = &lap[row];
      const double* __restrict fy = &fly[row];
      const double* __restrict fys = fy - g.jstride();
      double* __restrict o = &out[row];
      for (int i = 0; i < last; ++i) fx[i] = flux_point(l[i + 1], l[i], c[i + 1], c[i]);
      fx[last] = flux_point(0.0, l[last], 0.0, c[last]);
      o[0] = out_point(c[0], coeff, fx[0], 0.0, fy[0], fys[0]);
      for (int i = 1; i <= last; ++i)
        o[i] = out_point(c[i], coeff, fx[i], fx[i - 1], fy[i], fys[i]);
    }
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

// Simulated cost of one compute phase over `lines` j-lines: `passes` array
// passes of memory traffic plus `flops_per_point` arithmetic.
sim::Proc<void> charge_phase(gpu::BlockCtx& blk, const Config& cfg, int lines,
                             double passes, double flops_per_point) {
  const double points = static_cast<double>(cfg.isize) * lines * cfg.ksize;
  co_await blk.compute_flops(points * (flops_per_point + cfg.extra_flops_per_point));
  co_await blk.mem_traffic(points * sizeof(double) * passes);
}

struct DeviceArrays {
  std::span<double> in, lap, fly, out;
  Geometry g;
};

DeviceArrays make_arrays(gpu::Device& dev, const Geometry& g, int node_jbase,
                         int jtotal) {
  DeviceArrays a;
  a.g = g;
  a.in = dev.alloc<double>(g.elems());
  a.lap = dev.alloc<double>(g.elems());
  a.fly = dev.alloc<double>(g.elems());
  a.out = dev.alloc<double>(g.elems());
  // Device::alloc zero-fills, so only the initial values need writing.
  // Owned lines plus valid neighbor halos (boilerplate initialization).
  fill_initial(a.in, g, node_jbase, jtotal);
  return a;
}

void validate(const Config& cfg) {
  if (cfg.isize < 1 || cfg.jlocal < 1 || cfg.ksize < 1 || cfg.iterations < 0)
    throw ConfigError("stencil needs isize, jlocal and ksize >= 1 and iterations >= 0");
}

}  // namespace

double initial_value(int i, int jg, int k) {
  if (jg < 0) return 0.0;  // global zero boundary (also used for halos)
  return std::sin(0.1 * i) + 0.01 * jg + 0.001 * k;
}

std::vector<double> reference(const Config& cfg, int num_nodes, int rpd) {
  validate(cfg);
  if (num_nodes < 1 || rpd < 1)
    throw ConfigError("stencil reference needs num_nodes and ranks_per_device >= 1");
  const int jdev = rpd * cfg.jlocal;
  const int jtotal = num_nodes * jdev;
  Geometry g{cfg.isize, jtotal, cfg.ksize};  // one "device" spanning all
  std::vector<double> in(g.elems(), 0.0), lap(g.elems(), 0.0), fly(g.elems(), 0.0),
      out(g.elems(), 0.0), flx_row(static_cast<std::size_t>(g.isize));
  fill_initial(in, g, 0, jtotal);
  for (int it = 0; it < cfg.iterations; ++it) {
    compute_lap(in, lap, g, 0, jtotal);
    compute_fly(in, lap, fly, g, 0, jtotal);
    compute_out(in, lap, fly, out, flx_row, cfg.diffusion_coeff, g, 0, jtotal);
    std::swap(in, out);
  }
  return in;
}

double reference_checksum(const Config& cfg, int num_nodes, int rpd) {
  const int jdev = rpd * cfg.jlocal;
  const int jtotal = num_nodes * jdev;
  Geometry g{cfg.isize, jtotal, cfg.ksize};
  auto final_in = reference(cfg, num_nodes, rpd);
  double sum = 0.0;
  for (int k = 0; k < g.ksize; ++k)
    for (int j = 0; j < jtotal; ++j)
      for (int i = 0; i < g.isize; ++i) sum += final_in[g.at(i, j, k)];
  return sum;
}

Result run_dcuda(Cluster& cluster, const Config& cfg) {
  validate(cfg);
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  const Geometry g{cfg.isize, rpd * cfg.jlocal, cfg.ksize};
  std::vector<DeviceArrays> dev(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n)
    dev[static_cast<size_t>(n)] = make_arrays(cluster.device(n), g, n * g.jdev, nodes * g.jdev);

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
    // Double-buffered in/out field spans + windows.
    std::span<double> f_in = a.in, f_out = a.out;
    std::vector<double> flx_row(line_elems);  // this rank's compute_out scratch

    Window win = co_await win_create(ctx, kCommWorld, f_in);
    Window wout = co_await win_create(ctx, kCommWorld, f_out);
    Window wlap = co_await win_create(ctx, kCommWorld, a.lap);
    Window wfly = co_await win_create(ctx, kCommWorld, a.fly);

    const bool has_down = grank > 0;       // neighbor at smaller j
    const bool has_up = grank + 1 < gsize; // neighbor at larger j
    const int jb = r * cfg.jlocal;         // device-local bottom owned line
    const int jt = jb + cfg.jlocal - 1;    // top owned line

    // Sends one j-line (all k levels, one put per level, last one notified)
    // of `span` into the neighbor's window. In-device targets resolve to the
    // same array position: zero-copy, notification only.
    auto send_line = [&](Window w, std::span<double> span, int target_rank,
                         int my_j, int target_j, int tag) -> sim::Proc<void> {
      for (int k = 0; k < g.ksize; ++k) {
        const std::span<const double> line = span.subspan(g.at(0, my_j, k), line_elems);
        const std::size_t dst_off = g.at(0, target_j, k);  // element offset
        if (k + 1 < g.ksize) {
          co_await put(ctx, w, target_rank, dst_off, line);
        } else {
          co_await put_notify(ctx, w, target_rank, dst_off, line, tag);
        }
      }
    };
    // Target j-line (in the receiving device's coordinates) of my boundary
    // lines. Windows span the whole device array, so an in-device target is
    // the very same line (zero-copy overlap); a cross-device target is the
    // neighbor device's halo line.
    const int down_tgt_j = r > 0 ? jb : g.jdev;
    const int up_tgt_j = r + 1 < rpd ? jt : -1;

    for (int it = 0; it < cfg.iterations; ++it) {
      // Phase 1: lap on owned lines; then send bottom lap line down.
      if (cfg.compute) {
        compute_lap(f_in, a.lap, g, jb, jt + 1);
        co_await charge_phase(*ctx.block, cfg, cfg.jlocal, phase_passes[0],
                              phase_flops[0]);
      }
      if (cfg.exchange) {
        if (has_down) {
          co_await send_line(wlap, a.lap, grank - 1, jb, down_tgt_j, 0);
        }
        co_await wait_notifications(ctx, wlap, kAnySource, 0, has_up ? 1 : 0);
      }

      // Phase 2: fly on owned lines; send top fly line up.
      if (cfg.compute) {
        compute_fly(f_in, a.lap, a.fly, g, jb, jt + 1);
        co_await charge_phase(*ctx.block, cfg, cfg.jlocal, phase_passes[1],
                              phase_flops[1]);
      }
      if (cfg.exchange) {
        if (has_up) {
          co_await send_line(wfly, a.fly, grank + 1, jt, up_tgt_j, 1);
        }
        co_await wait_notifications(ctx, wfly, kAnySource, 1, has_down ? 1 : 0);
      }

      // Phase 3: flx and out on owned lines; exchange out both directions, swap.
      if (cfg.compute) {
        compute_out(f_in, a.lap, a.fly, f_out, flx_row, cfg.diffusion_coeff, g, jb,
                    jt + 1);
        co_await charge_phase(*ctx.block, cfg, cfg.jlocal, phase_passes[2],
                              phase_flops[2]);
      }
      if (cfg.exchange) {
        if (has_down) co_await send_line(wout, f_out, grank - 1, jb, down_tgt_j, 2);
        if (has_up) co_await send_line(wout, f_out, grank + 1, jt, up_tgt_j, 2);
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

  // Checksum over owned lines of the final field (lives in `in` slot after an
  // even number of swaps, `out` otherwise; per device both spans alias the
  // same storage passed at window creation — resolve by iteration parity).
  for (int n = 0; n < nodes; ++n) {
    const DeviceArrays& a = dev[static_cast<size_t>(n)];
    std::span<const double> fin = cfg.iterations % 2 == 0 ? a.in : a.out;
    for (int k = 0; k < g.ksize; ++k)
      for (int j = 0; j < g.jdev; ++j)
        for (int i = 0; i < g.isize; ++i) res.checksum += fin[g.at(i, j, k)];
  }
  for (int n = 0; n < nodes; ++n)
    res.bytes_on_wire += static_cast<std::uint64_t>(cluster.fabric().bytes_sent(n));
  return res;
}

Result run_mpi_cuda(Cluster& cluster, const Config& cfg) {
  validate(cfg);
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  const Geometry g{cfg.isize, rpd * cfg.jlocal, cfg.ksize};
  std::vector<DeviceArrays> dev(static_cast<size_t>(nodes));
  std::vector<std::span<double>> sendbuf(static_cast<size_t>(nodes));
  std::vector<std::span<double>> recvbuf(static_cast<size_t>(nodes));
  std::vector<std::unique_ptr<baseline::HostProgram>> progs;
  const int halo_elems = g.isize * g.ksize;
  for (int n = 0; n < nodes; ++n) {
    dev[static_cast<size_t>(n)] = make_arrays(cluster.device(n), g, n * g.jdev, nodes * g.jdev);
    // Two packed buffers per direction.
    sendbuf[static_cast<size_t>(n)] = cluster.device(n).alloc<double>(2 * halo_elems);
    recvbuf[static_cast<size_t>(n)] = cluster.device(n).alloc<double>(2 * halo_elems);
    progs.push_back(std::make_unique<baseline::HostProgram>(cluster.device(n),
                                                            cluster.mpi(n)));
  }

  const double phase_flops[3] = {5.0, 12.0, 9.0};
  const double phase_passes[3] = {2.0, 4.0, 4.0};

  Result res;
  res.elapsed = cluster.run_hosts([&](int n) -> sim::Proc<void> {
    baseline::HostProgram& hp = *progs[static_cast<size_t>(n)];
    DeviceArrays& a = dev[static_cast<size_t>(n)];
    std::span<double> f_in = a.in, f_out = a.out;
    const bool has_down = n > 0, has_up = n + 1 < nodes;
    // compute_out scratch of this host's kernels; their blocks run one at a
    // time and compute_out never suspends.
    std::vector<double> flx_row(static_cast<size_t>(g.isize));

    // Fork-join compute kernel over one phase (each block takes jlocal lines).
    auto phase_kernel = [&](int phase, std::span<double> pin,
                            std::span<double> pout) -> sim::Proc<void> {
      gpu::Kernel k = [&, phase, pin, pout](gpu::BlockCtx& blk) -> sim::Proc<void> {
        const int jb = blk.block_id() * cfg.jlocal;
        const int jt = jb + cfg.jlocal;
        if (phase == 0) {
          compute_lap(pin, a.lap, g, jb, jt);
        } else if (phase == 1) {
          compute_fly(pin, a.lap, a.fly, g, jb, jt);
        } else {
          compute_out(pin, a.lap, a.fly, pout, flx_row, cfg.diffusion_coeff, g, jb, jt);
        }
        co_await charge_phase(blk, cfg, cfg.jlocal,
                              phase_passes[static_cast<size_t>(phase)],
                              phase_flops[static_cast<size_t>(phase)]);
      };
      co_await hp.launch(gpu::LaunchConfig{rpd, 128, 26}, std::move(k), "phase");
    };

    // Copies device-local boundary j-lines of `span` (each contiguous over
    // all k levels) into the send buffers (pack kernel), sends one message
    // per direction, copies the mirrored lines into the halo lines (unpack
    // kernel). `down_dir` exchanges bottom lines downward (received from up
    // into halo jdev); `up_dir` exchanges top lines upward (received from
    // down into halo -1).
    auto exchange_line = [&](std::span<double> span, bool down_dir, bool up_dir,
                             int tag) -> sim::Proc<void> {
      std::vector<mpi::Request> reqs;
      const std::size_t halo_bytes = static_cast<size_t>(halo_elems) * sizeof(double);
      auto pack = [&](int j, std::span<double> buf) -> sim::Proc<void> {
        gpu::Kernel k = [&, j, buf](gpu::BlockCtx& blk) -> sim::Proc<void> {
          if (blk.block_id() != 0) co_return;
          std::memcpy(buf.data(), &span[g.at(0, j, 0)], halo_bytes);
          co_await blk.mem_traffic(2.0 * static_cast<double>(halo_bytes));
        };
        co_await hp.launch(gpu::LaunchConfig{rpd, 128, 26}, std::move(k), "pack");
      };
      auto unpack = [&](int j, std::span<double> buf) -> sim::Proc<void> {
        gpu::Kernel k = [&, j, buf](gpu::BlockCtx& blk) -> sim::Proc<void> {
          if (blk.block_id() != 0) co_return;
          std::memcpy(&span[g.at(0, j, 0)], buf.data(), halo_bytes);
          co_await blk.mem_traffic(2.0 * static_cast<double>(halo_bytes));
        };
        co_await hp.launch(gpu::LaunchConfig{rpd, 128, 26}, std::move(k), "unpack");
      };

      auto& devv = cluster.device(n);
      mpi::Request r_up, r_down;
      // Pre-post the receives for the mirrored lines: a down-directed
      // exchange is received from the up-neighbor into halo line jdev, an
      // up-directed one from the down-neighbor into halo line -1.
      if (down_dir && has_up) {
        r_up = hp.irecv(n + 1, tag,
                        devv.ref(recvbuf[static_cast<size_t>(n)].subspan(0, halo_elems)));
      }
      if (up_dir && has_down) {
        r_down = hp.irecv(n - 1, tag,
                          devv.ref(recvbuf[static_cast<size_t>(n)].subspan(
                              static_cast<size_t>(halo_elems), halo_elems)));
      }
      if (down_dir && has_down) {
        co_await pack(0, sendbuf[static_cast<size_t>(n)].subspan(0, halo_elems));
        reqs.push_back(
            hp.isend(n - 1, tag,
                     devv.ref(sendbuf[static_cast<size_t>(n)].subspan(0, halo_elems))));
      }
      if (up_dir && has_up) {
        co_await pack(g.jdev - 1, sendbuf[static_cast<size_t>(n)].subspan(
                                      static_cast<size_t>(halo_elems), halo_elems));
        reqs.push_back(hp.isend(n + 1, tag,
                                devv.ref(sendbuf[static_cast<size_t>(n)].subspan(
                                    static_cast<size_t>(halo_elems), halo_elems))));
      }
      for (auto& rq : reqs) co_await rq.wait();
      if (r_up.valid()) {
        co_await r_up.wait();
        co_await unpack(g.jdev, recvbuf[static_cast<size_t>(n)].subspan(0, halo_elems));
      }
      if (r_down.valid()) {
        co_await r_down.wait();
        co_await unpack(-1, recvbuf[static_cast<size_t>(n)].subspan(
                                static_cast<size_t>(halo_elems), halo_elems));
      }
    };

    for (int it = 0; it < cfg.iterations; ++it) {
      if (cfg.compute) co_await phase_kernel(0, f_in, f_out);
      if (cfg.exchange) {
        co_await exchange_line(a.lap, /*down_dir=*/true, /*up_dir=*/false,
                               10 + it * 4);
      }
      if (cfg.compute) co_await phase_kernel(1, f_in, f_out);
      if (cfg.exchange) {
        co_await exchange_line(a.fly, /*down_dir=*/false, /*up_dir=*/true,
                               11 + it * 4);
      }
      if (cfg.compute) co_await phase_kernel(2, f_in, f_out);
      if (cfg.exchange) {
        co_await exchange_line(f_out, /*down_dir=*/true, /*up_dir=*/true,
                               12 + it * 4);
      }
      std::swap(f_in, f_out);
    }
  });

  for (int n = 0; n < nodes; ++n) {
    const DeviceArrays& a = dev[static_cast<size_t>(n)];
    std::span<const double> fin = cfg.iterations % 2 == 0 ? a.in : a.out;
    for (int k = 0; k < g.ksize; ++k)
      for (int j = 0; j < g.jdev; ++j)
        for (int i = 0; i < g.isize; ++i) res.checksum += fin[g.at(i, j, k)];
  }
  for (int n = 0; n < nodes; ++n)
    res.bytes_on_wire += static_cast<std::uint64_t>(cluster.fabric().bytes_sent(n));
  return res;
}

}  // namespace dcuda::apps::stencil
