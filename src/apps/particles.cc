#include "apps/particles.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "apps/cell_exchange.h"
#include "sim/config.h"
#include "sim/random.h"

namespace dcuda::apps::particles {

namespace {

// A view of one cell's (or halo slot's) particle storage.
struct CellView {
  double* x = nullptr;
  double* y = nullptr;
  double* vx = nullptr;
  double* vy = nullptr;
  std::int32_t count = 0;
};

// Deterministic initial particle placement for global cell `gc`. The same
// particles appear regardless of decomposition, so all variants (and the
// serial reference) start identically.
void init_cell(const Config& cfg, int gc, CellView v) {
  sim::Rng rng(cfg.seed ^ (0x9e37ull * static_cast<std::uint64_t>(gc + 1)));
  for (int i = 0; i < cfg.particles_per_cell; ++i) {
    v.x[i] = (gc + rng.next_double()) * cfg.cell_width;
    v.y[i] = rng.next_double() * cfg.domain_height;
    v.vx[i] = rng.uniform(-0.5, 0.5) * cfg.cell_width / 10.0;
    v.vy[i] = rng.uniform(-0.5, 0.5) * cfg.cell_width / 10.0;
  }
}

// Short-range repulsive pair force on particle (xi, yi) from neighbors in
// `other`; accumulates into (fx, fy) and counts interactions scanned.
void accumulate_forces(const Config& cfg, double xi, double yi, const CellView& other,
                       const double* self_x, int self_idx, double& fx, double& fy) {
  for (int j = 0; j < other.count; ++j) {
    if (other.x == self_x && j == self_idx) continue;
    const double dx = xi - other.x[j];
    const double dy = yi - other.y[j];
    const double r2 = dx * dx + dy * dy;
    if (r2 >= cfg.cutoff * cfg.cutoff || r2 == 0.0) continue;
    const double r = std::sqrt(r2);
    const double f = cfg.force_k * (1.0 - r / cfg.cutoff) / r;
    fx += f * dx;
    fy += f * dy;
  }
}

// Phase 2 for one cell: forces from {left, self, right} then simplified
// Verlet update with reflecting walls. Returns pair-scan count (cost model).
std::int64_t force_and_update(const Config& cfg, CellView self, const CellView& left,
                              const CellView& right, double domain_width) {
  std::int64_t scans = 0;
  // Forces use the pre-update positions: compute all accelerations first.
  std::vector<double> ax(static_cast<size_t>(self.count), 0.0);
  std::vector<double> ay(static_cast<size_t>(self.count), 0.0);
  for (int i = 0; i < self.count; ++i) {
    double fx = 0.0, fy = 0.0;
    accumulate_forces(cfg, self.x[i], self.y[i], left, self.x, i, fx, fy);
    accumulate_forces(cfg, self.x[i], self.y[i], self, self.x, i, fx, fy);
    accumulate_forces(cfg, self.x[i], self.y[i], right, self.x, i, fx, fy);
    ax[static_cast<size_t>(i)] = fx;
    ay[static_cast<size_t>(i)] = fy;
    scans += left.count + self.count + right.count;
  }
  for (int i = 0; i < self.count; ++i) {
    self.vx[i] += ax[static_cast<size_t>(i)] * cfg.dt;
    self.vy[i] += ay[static_cast<size_t>(i)] * cfg.dt;
    self.x[i] += self.vx[i] * cfg.dt;
    self.y[i] += self.vy[i] * cfg.dt;
    if (self.x[i] < 0.0) {
      self.x[i] = -self.x[i];
      self.vx[i] = -self.vx[i];
    }
    if (self.x[i] > domain_width) {
      self.x[i] = 2.0 * domain_width - self.x[i];
      self.vx[i] = -self.vx[i];
    }
    if (self.y[i] < 0.0) {
      self.y[i] = -self.y[i];
      self.vy[i] = -self.vy[i];
    }
    if (self.y[i] > cfg.domain_height) {
      self.y[i] = 2.0 * cfg.domain_height - self.y[i];
      self.vy[i] = -self.vy[i];
    }
  }
  return scans;
}

// Phase 3 for one cell: stable-compacts stayers, appends movers to the
// left/right outboxes. Cell boundaries are [gc*cell_width, (gc+1)*cell_width).
struct SortResult {
  std::int32_t left = 0;
  std::int32_t right = 0;
};
SortResult sort_out(const Config& cfg, int gc, CellView self, std::int32_t* count,
                    CellView lout, CellView rout) {
  const double lo = gc * cfg.cell_width, hi = (gc + 1) * cfg.cell_width;
  SortResult res;
  int keep = 0;
  for (int i = 0; i < *count; ++i) {
    CellView* dst = nullptr;
    int idx = 0;
    if (self.x[i] < lo) {
      assert(self.x[i] >= lo - cfg.cell_width && "particle hopped two cells");
      dst = &lout;
      idx = res.left++;
    } else if (self.x[i] >= hi) {
      assert(self.x[i] < hi + cfg.cell_width && "particle hopped two cells");
      dst = &rout;
      idx = res.right++;
    }
    if (dst != nullptr) {
      dst->x[idx] = self.x[i];
      dst->y[idx] = self.y[i];
      dst->vx[idx] = self.vx[i];
      dst->vy[idx] = self.vy[i];
    } else {
      self.x[keep] = self.x[i];
      self.y[keep] = self.y[i];
      self.vx[keep] = self.vx[i];
      self.vy[keep] = self.vy[i];
      ++keep;
    }
  }
  *count = keep;
  return res;
}

// Phase 5 of the serial reference: appends `n` arrivals from `from` to the
// cell (the device drivers append through cells::integrate).
void append(CellView self, std::int32_t* count, const CellView& from, int n, int cap) {
  if (*count + n > cap) throw ConfigError("cell overflow: increase capacity_factor");
  for (int i = 0; i < n; ++i) {
    const int d = (*count)++;
    self.x[d] = from.x[i];
    self.y[d] = from.y[i];
    self.vx[d] = from.vx[i];
    self.vy[d] = from.vy[i];
  }
}

// Simulated per-iteration cost of one rank's cell (charged to the SM and the
// device memory system; the innermost force loop performs two memory
// accesses per scanned pair, §IV-C).
sim::Proc<void> charge_iteration(gpu::BlockCtx& blk, std::int64_t pair_scans,
                                 int particles, int moved) {
  const double scans = static_cast<double>(pair_scans);
  co_await blk.compute_flops(scans * 12.0 + particles * 10.0);
  co_await blk.mem_traffic(scans * 2.0 * sizeof(double) +
                           particles * 10.0 * sizeof(double) +
                           moved * 8.0 * sizeof(double));
}

// Chain directions (cell_exchange.h): the particle domain is the N x 1 x 1
// grid, so a cell's only neighbours sit at 12 (left) and 14 (right).
constexpr int kLeft = 12, kRight = 14;
constexpr int kHaloTag = 1, kMigrateTag = 2;

// A view of record block `b` of `s`; fields `s` does not hold stay null.
CellView view(const cells::Slots& s, size_t b, std::int32_t count) {
  double* f[4] = {};
  for (size_t i = 0; i < s.field.size(); ++i) f[i] = s.at(i, b);
  return CellView{f[0], f[1], f[2], f[3], count};
}

CellView cell_view(const cells::Store& s, int r) {
  return view(s.cell, static_cast<size_t>(r), s.cell.count[static_cast<size_t>(r)]);
}

// Halo and outbox views; empty in a one-cell domain, which has no slots.
CellView halo_view(const cells::Store& s, int r, int d) {
  if (s.slot(d) < 0) return CellView{};
  return view(s.halo, s.block(r, d), s.halo.count[s.counter(r, d)]);
}

CellView outbox_view(const cells::Store& s, int r, int d) {
  if (s.slot(d) < 0) return CellView{};
  return view(s.outbox, s.block(r, d), 0);
}

// Phase 3 on a device cell: movers into the outboxes, their counts into the
// outbox counters.
SortResult sort_cell(const Config& cfg, cells::Store& s, int r) {
  const SortResult m = sort_out(cfg, s.global(r), cell_view(s, r),
                                &s.cell.count[static_cast<size_t>(r)],
                                outbox_view(s, r, kLeft), outbox_view(s, r, kRight));
  if (s.slot(kLeft) >= 0) {
    s.outbox.count[s.counter(r, kLeft)] = m.left;
    s.outbox.count[s.counter(r, kRight)] = m.right;
  }
  return m;
}

// Per-device particle storage: SoA fields x, y, vx, vy (record width 1),
// halo slots carrying x and y, and per-direction inbox and outbox slots.
//
// NOTE (documented deviation): the paper overlaps the windows of shared
// memory ranks so that intra-device halo puts move no data. That leaves the
// force phase reading live neighbor positions, which races with the
// neighbor's position update. We keep dedicated halo slots per rank instead
// (intra-device halo puts become device-local copies), trading a little
// intra-device bandwidth for deterministic, validatable physics.
cells::Store make_store(gpu::Device& dev, const Config& cfg, const cells::Grid& g,
                        int rpd, int node_id) {
  cells::Store s(dev, g, node_id, rpd, cfg.capacity(), /*width=*/1, /*fields=*/4,
                 /*halo_fields=*/2, /*send_fields=*/0, cells::Counters::kCompact);
  for (int r = 0; r < rpd; ++r) {
    init_cell(cfg, s.global(r), cell_view(s, r));
    s.cell.count[static_cast<size_t>(r)] = cfg.particles_per_cell;
  }
  return s;
}

Result collect(int rpd, std::vector<cells::Store>& devs) {
  Result res;
  for (auto& s : devs) {
    for (int r = 0; r < rpd; ++r) {
      CellView c = cell_view(s, r);
      res.total_particles += c.count;
      for (int i = 0; i < c.count; ++i) {
        res.checksum += std::abs(c.x[i]) + std::abs(c.y[i]);
        res.momentum_x += c.vx[i];
        res.momentum_y += c.vy[i];
      }
    }
  }
  return res;
}

}  // namespace

Result reference(const Config& cfg, int num_nodes) {
  const int cells = cfg.cells_per_node * num_nodes;
  const int cap = cfg.capacity();
  const double width = cells * cfg.cell_width;
  std::vector<double> x(static_cast<size_t>(cells) * cap), y(x.size()), vx(x.size()),
      vy(x.size());
  std::vector<std::int32_t> count(static_cast<size_t>(cells), cfg.particles_per_cell);
  auto cell = [&](int c) {
    const size_t o = static_cast<size_t>(c) * cap;
    return CellView{&x[o], &y[o], &vx[o], &vy[o], count[static_cast<size_t>(c)]};
  };
  for (int c = 0; c < cells; ++c) init_cell(cfg, c, cell(c));

  // Halo copies + outboxes, mirroring the parallel phase structure exactly.
  std::vector<double> hx(static_cast<size_t>(2 * cells) * cap), hy(hx.size());
  std::vector<std::int32_t> hcount(static_cast<size_t>(2 * cells), 0);
  std::vector<double> obx(hx.size()), oby(hx.size()), obvx(hx.size()), obvy(hx.size());
  std::vector<std::int32_t> obcount(static_cast<size_t>(2 * cells), 0);
  auto halo = [&](int c, int side) {
    const size_t o = (static_cast<size_t>(c) * 2 + side) * cap;
    return CellView{&hx[o], &hy[o], nullptr, nullptr,
                    hcount[static_cast<size_t>(c * 2 + side)]};
  };
  auto outbox = [&](int c, int side) {
    const size_t o = (static_cast<size_t>(c) * 2 + side) * cap;
    return CellView{&obx[o], &oby[o], &obvx[o], &obvy[o],
                    obcount[static_cast<size_t>(c * 2 + side)]};
  };

  for (int it = 0; it < cfg.iterations; ++it) {
    // 1) halo exchange: copy neighbor boundary cells.
    for (int c = 0; c < cells; ++c) {
      for (int side = 0; side < 2; ++side) {
        const int nb = side == 0 ? c - 1 : c + 1;
        CellView h = halo(c, side);
        if (nb < 0 || nb >= cells) {
          hcount[static_cast<size_t>(c * 2 + side)] = 0;
          continue;
        }
        CellView src = cell(nb);
        std::memcpy(h.x, src.x, static_cast<size_t>(src.count) * sizeof(double));
        std::memcpy(h.y, src.y, static_cast<size_t>(src.count) * sizeof(double));
        hcount[static_cast<size_t>(c * 2 + side)] = src.count;
      }
    }
    // 2) force + update (all cells, reading halo copies).
    for (int c = 0; c < cells; ++c) {
      force_and_update(cfg, cell(c), halo(c, 0), halo(c, 1), width);
    }
    // 3) sort out movers.
    for (int c = 0; c < cells; ++c) {
      SortResult s = sort_out(cfg, c, cell(c), &count[static_cast<size_t>(c)],
                              outbox(c, 0), outbox(c, 1));
      obcount[static_cast<size_t>(c * 2 + 0)] = s.left;
      obcount[static_cast<size_t>(c * 2 + 1)] = s.right;
    }
    // 4+5) deliver and integrate (left arrivals first, then right).
    for (int c = 0; c < cells; ++c) {
      if (c > 0) {
        CellView from = outbox(c - 1, 1);
        from.count = obcount[static_cast<size_t>((c - 1) * 2 + 1)];
        append(cell(c), &count[static_cast<size_t>(c)], from, from.count, cap);
      }
      if (c + 1 < cells) {
        CellView from = outbox(c + 1, 0);
        from.count = obcount[static_cast<size_t>((c + 1) * 2 + 0)];
        append(cell(c), &count[static_cast<size_t>(c)], from, from.count, cap);
      }
    }
  }

  Result res;
  for (int c = 0; c < cells; ++c) {
    CellView v = cell(c);
    res.total_particles += v.count;
    for (int i = 0; i < v.count; ++i) {
      res.checksum += std::abs(v.x[i]) + std::abs(v.y[i]);
      res.momentum_x += v.vx[i];
      res.momentum_y += v.vy[i];
    }
  }
  return res;
}

Result run_dcuda(Cluster& cluster, const Config& cfg) {
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  cells::require_cell_per_rank(cfg.cells_per_node, rpd);
  const cells::Grid grid{nodes * rpd, 1, 1};
  const double width = grid.cells() * cfg.cell_width;

  std::vector<cells::Store> devs;
  devs.reserve(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    devs.push_back(make_store(cluster.device(n), cfg, grid, rpd, n));
  }

  Result res;
  res.elapsed = cluster.run([&](Context& ctx) -> sim::Proc<void> {
    const int r = ctx.device_rank;
    cells::Store& s = devs[static_cast<size_t>(ctx.node->node())];

    // One window per array (paper: "each rank registers one window per
    // array"). All ranks of a device register the same device-wide range.
    cells::Windows whalo = co_await cells::win_create(ctx, s.halo);
    cells::Windows winbox = co_await cells::win_create(ctx, s.inbox);

    for (int it = 0; it < cfg.iterations; ++it) {
      const std::int32_t my_count = s.cell.count[static_cast<size_t>(r)];

      // 1) halo exchange: my cell's positions into the neighbors' halo
      // slots. The count put carries the notification. Both exchanges ship
      // their payload puts even when empty (skip_empty=false in every call):
      // Fig. 9's timing includes them.
      if (cfg.exchange) {
        co_await cells::fan_out(ctx, s, r, s.cell, whalo, kHaloTag,
                                /*skip_empty=*/false);
      }

      // 2) force computation and position update.
      std::int64_t scans = 0;
      if (cfg.compute) {
        scans = force_and_update(cfg, cell_view(s, r), halo_view(s, r, kLeft),
                                 halo_view(s, r, kRight), width);
      }

      // 3) sort out movers into the outboxes.
      SortResult moved{};
      if (cfg.compute) moved = sort_cell(cfg, s, r);

      // 4) communicate movers into the neighbors' inboxes.
      if (cfg.exchange) {
        co_await cells::fan_out(ctx, s, r, s.outbox, winbox, kMigrateTag,
                                /*skip_empty=*/false);
      }

      // 5) integrate arrivals (left inbox first, then right — the same
      // order as the serial reference).
      const int arrivals = cells::integrate(s, r, /*direct=*/false);
      if (cfg.compute) {
        co_await charge_iteration(*ctx.block, scans, my_count,
                                  moved.left + moved.right + arrivals);
      }
    }

    co_await barrier(ctx, kCommWorld);
    co_await cells::win_free(ctx, whalo);
    co_await cells::win_free(ctx, winbox);
  });
  Result out = collect(rpd, devs);
  out.elapsed = res.elapsed;
  return out;
}

Result run_mpi_cuda(Cluster& cluster, const Config& cfg) {
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  cells::require_cell_per_rank(cfg.cells_per_node, rpd);
  const cells::Grid grid{nodes * rpd, 1, 1};
  const double width = grid.cells() * cfg.cell_width;

  std::vector<cells::Store> devs;
  devs.reserve(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n) devs.push_back(make_store(cluster.device(n), cfg, grid, rpd, n));

  Result res;
  res.elapsed = cluster.run_hosts([&](int n) -> sim::Proc<void> {
    gpu::Device& dev = cluster.device(n);
    mpi::Endpoint& ep = cluster.mpi(n);
    cells::Store& s = devs[static_cast<size_t>(n)];
    const gpu::LaunchConfig lc{rpd, 128, 26};
    std::vector<std::int32_t> particles(static_cast<size_t>(rpd), 0);

    for (int it = 0; it < cfg.iterations; ++it) {
      // Bookkeeping counters to the host (the paper calls this out as an
      // MPI-CUDA overhead: D2H fetch every iteration).
      co_await cells::fetch(dev, s.cell);

      if (cfg.exchange) {
        // 1) halo exchange at the device boundary: count, then x and y.
        co_await cells::exchange_boundary(dev, ep, s, s.cell, s.halo, /*skip_empty=*/false);
        // Intra-device halos: copy neighbor cells into the halo slots.
        co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const cells::Copied c = cells::copy_local(s, blk.block_id(), s.cell, s.halo);
          for (int i = 0; i < c.size; ++i) {
            co_await blk.mem_traffic(4.0 * c.n[static_cast<size_t>(i)] * sizeof(double));
          }
        }, "halo");
      }

      // 2) force + update kernel.
      if (cfg.compute) {
        co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          particles[static_cast<size_t>(r)] = s.cell.count[static_cast<size_t>(r)];
          const std::int64_t scans = force_and_update(
              cfg, cell_view(s, r), halo_view(s, r, kLeft), halo_view(s, r, kRight), width);
          co_await blk.compute_flops(static_cast<double>(scans) * 12.0);
          co_await blk.mem_traffic(static_cast<double>(scans) * 2.0 * sizeof(double));
        }, "force");

        // 3) sort kernel: movers into outboxes.
        co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          sort_cell(cfg, s, r);
          co_await blk.mem_traffic(
              static_cast<double>(s.cell.count[static_cast<size_t>(r)]) * 8.0 *
              sizeof(double));
        }, "sort");
      }

      if (cfg.exchange) {
        // 4) migrate across the device boundary: fetch the outbox counters
        // from the device first (the per-iteration D2H the paper calls out).
        co_await cells::fetch(dev, s.outbox);
        co_await cells::exchange_boundary(dev, ep, s, s.outbox, s.inbox, /*skip_empty=*/false);
      }

      // 5) integrate arrivals (intra-device movers come straight from the
      // neighbor outboxes; device-edge inbox slots were filled by MPI). The
      // kernel runs with exchange off too: intra-device movers still land.
      co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
        const int r = blk.block_id();
        const int arrivals = cells::integrate(s, r, /*direct=*/true);
        co_await blk.mem_traffic(arrivals * 8.0 * sizeof(double) +
                                 particles[static_cast<size_t>(r)] * 2.0 *
                                     sizeof(double));
      }, "integrate");
    }
  });

  Result out = collect(rpd, devs);
  out.elapsed = res.elapsed;
  return out;
}

}  // namespace dcuda::apps::particles
