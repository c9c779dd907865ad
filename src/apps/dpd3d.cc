#include "apps/dpd3d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include "net/topology.h"
#include "sim/config.h"
#include "sim/random.h"

namespace dcuda::apps::dpd3d {

namespace {

// Packed particle record: x, y, z, vx, vy, vz.
constexpr int kRec = 6;
constexpr int kHaloTag = 11, kMigrateTag = 12, kTicketTag = 13;

// A view of one cell's (or halo/inbox slot's) packed particle records.
struct View {
  double* rec = nullptr;
  std::int32_t count = 0;
};

struct Box {
  double lo[3] = {0, 0, 0};
  double hi[3] = {0, 0, 0};
};

Box box_of(const Config& cfg, const Grid& g, int cell) {
  const std::array<int, 3> c = g.coords(cell);
  Box b;
  for (int a = 0; a < 3; ++a) {
    b.lo[a] = c[static_cast<std::size_t>(a)] * cfg.cell_width;
    b.hi[a] = b.lo[a] + cfg.cell_width;
  }
  return b;
}

// Per-cell initial counts. kSkewed concentrates the same global total into a
// Gaussian blob near the low corner (the drift then sweeps it across the
// grid); largest-remainder rounding plus a deterministic per-cell clamp keep
// the total exact and every cell within half its storage capacity.
std::vector<int> initial_counts(const Config& cfg, const Grid& g) {
  const int cells = g.cells();
  std::vector<int> n(static_cast<std::size_t>(cells), cfg.particles_per_cell);
  if (cfg.density == Density::kUniform) return n;

  const std::int64_t total =
      static_cast<std::int64_t>(cells) * cfg.particles_per_cell;
  const double c0[3] = {0.3 * g.gx, 0.3 * g.gy, 0.3 * g.gz};
  std::vector<double> w(static_cast<std::size_t>(cells));
  double wsum = 0.0;
  for (int c = 0; c < cells; ++c) {
    const std::array<int, 3> cc = g.coords(c);
    double d2 = 0.0;
    for (int a = 0; a < 3; ++a) {
      const double d = (cc[static_cast<std::size_t>(a)] + 0.5) - c0[a];
      d2 += d * d;
    }
    // The tiny floor keeps far cells populated (but near-empty) so skewed
    // runs still exercise every rank's protocol.
    w[static_cast<std::size_t>(c)] =
        std::exp(-d2 / (2.0 * cfg.skew_sigma * cfg.skew_sigma)) + 1e-4;
    wsum += w[static_cast<std::size_t>(c)];
  }
  // Largest-remainder rounding: decomposition-invariant and total-exact.
  std::vector<double> frac(static_cast<std::size_t>(cells));
  std::int64_t assigned = 0;
  for (int c = 0; c < cells; ++c) {
    const double quota = total * w[static_cast<std::size_t>(c)] / wsum;
    n[static_cast<std::size_t>(c)] = static_cast<int>(quota);
    frac[static_cast<std::size_t>(c)] = quota - n[static_cast<std::size_t>(c)];
    assigned += n[static_cast<std::size_t>(c)];
  }
  std::vector<int> order(static_cast<std::size_t>(cells));
  for (int c = 0; c < cells; ++c) order[static_cast<std::size_t>(c)] = c;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double fa = frac[static_cast<std::size_t>(a)];
    const double fb = frac[static_cast<std::size_t>(b)];
    return fa != fb ? fa > fb : a < b;
  });
  for (std::int64_t i = 0; i < total - assigned; ++i) {
    ++n[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  }
  // Clamp the blob peak to half the storage capacity (migration headroom),
  // pushing overflow to the least-loaded cells (lowest index on ties).
  const int limit = cfg.capacity() / 2;
  if (static_cast<std::int64_t>(limit) * cells < total) {
    throw ConfigError("capacity_factor too small for the skewed particle total");
  }
  std::int64_t excess = 0;
  for (int c = 0; c < cells; ++c) {
    if (n[static_cast<std::size_t>(c)] > limit) {
      excess += n[static_cast<std::size_t>(c)] - limit;
      n[static_cast<std::size_t>(c)] = limit;
    }
  }
  while (excess > 0) {
    int argmin = -1;
    for (int c = 0; c < cells; ++c) {
      if (n[static_cast<std::size_t>(c)] >= limit) continue;
      if (argmin < 0 ||
          n[static_cast<std::size_t>(c)] < n[static_cast<std::size_t>(argmin)]) {
        argmin = c;
      }
    }
    assert(argmin >= 0);
    ++n[static_cast<std::size_t>(argmin)];
    --excess;
  }
  return n;
}

// Packs the particles of `cell` that must be shipped toward `dir` into
// `out`, in storage order; returns the record count.
int pack_halo(const Config& cfg, const Grid& g, int cell, const double* rec,
              std::int32_t count, int dir, double* out) {
  int n = 0;
  for (int i = 0; i < count; ++i) {
    const double* p = &rec[static_cast<std::size_t>(i) * kRec];
    if (!ship_to_dir(cfg, g, cell, dir, p[0], p[1], p[2])) continue;
    std::memcpy(&out[static_cast<std::size_t>(n) * kRec], p, kRec * sizeof(double));
    ++n;
  }
  return n;
}

// Geometry side of the halo oracle: every record in slot (cell, dir) must
// lie inside the sender's box and satisfy the sender-side ship predicate.
std::int64_t check_halo_slot(const Config& cfg, const Grid& g, int cell, int dir,
                             const View& v) {
  const int sender = g.dir2cell(cell, dir);
  if (sender < 0) return v.count;  // data from outside the domain
  const Box sb = box_of(cfg, g, sender);
  constexpr double kEps = 1e-9;
  std::int64_t bad = 0;
  for (int i = 0; i < v.count; ++i) {
    const double* p = &v.rec[static_cast<std::size_t>(i) * kRec];
    bool in_box = true;
    for (int a = 0; a < 3; ++a) {
      in_box = in_box && p[a] >= sb.lo[a] - kEps && p[a] <= sb.hi[a] + kEps;
    }
    if (!in_box || !ship_to_dir(cfg, g, sender, opposite(dir), p[0], p[1], p[2])) {
      ++bad;
    }
  }
  return bad;
}

// DPD force computation + Euler update with reflecting walls. `nb[kSelf]`
// must alias (rec, count); the accumulation order — directions ascending,
// records in slot order — is identical in every variant, so results are
// bitwise comparable.
std::int64_t force_and_update(const Config& cfg, const std::array<View, kDirs>& nb,
                              double* rec, std::int32_t count, const double L[3]) {
  const double rc = cfg.cutoff, rc2 = rc * rc;
  std::int64_t scans = 0;
  std::vector<double> acc(static_cast<std::size_t>(count) * 3, 0.0);
  for (int i = 0; i < count; ++i) {
    const double* pi = &rec[static_cast<std::size_t>(i) * kRec];
    double f[3] = {0.0, 0.0, 0.0};
    for (int d = 0; d < kDirs; ++d) {
      const View& o = nb[static_cast<std::size_t>(d)];
      for (int j = 0; j < o.count; ++j) {
        if (o.rec == rec && j == i) continue;
        const double* pj = &o.rec[static_cast<std::size_t>(j) * kRec];
        const double dx = pi[0] - pj[0];
        const double dy = pi[1] - pj[1];
        const double dz = pi[2] - pj[2];
        const double r2 = dx * dx + dy * dy + dz * dz;
        if (r2 >= rc2 || r2 == 0.0) continue;
        const double r = std::sqrt(r2);
        const double wgt = 1.0 - r / rc;
        // Conservative soft repulsion + deterministic dissipative drag
        // (stochastic DPD term omitted for bitwise reproducibility). The
        // combined coefficient is antisymmetric under i <-> j, so pairwise
        // momentum is conserved in the interior.
        const double dvx = pi[3] - pj[3];
        const double dvy = pi[4] - pj[4];
        const double dvz = pi[5] - pj[5];
        const double c = cfg.force_a * wgt / r -
                         cfg.force_gamma * wgt * wgt *
                             ((dx * dvx + dy * dvy + dz * dvz) / r2);
        f[0] += c * dx;
        f[1] += c * dy;
        f[2] += c * dz;
      }
      scans += o.count;
    }
    acc[static_cast<std::size_t>(i) * 3 + 0] = f[0];
    acc[static_cast<std::size_t>(i) * 3 + 1] = f[1];
    acc[static_cast<std::size_t>(i) * 3 + 2] = f[2];
  }
  for (int i = 0; i < count; ++i) {
    double* p = &rec[static_cast<std::size_t>(i) * kRec];
    for (int a = 0; a < 3; ++a) {
      p[3 + a] += acc[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(a)] *
                  cfg.dt;
      p[a] += p[3 + a] * cfg.dt;
      if (p[a] < 0.0) {
        p[a] = -p[a];
        p[3 + a] = -p[3 + a];
      }
      if (p[a] > L[a]) {
        p[a] = 2.0 * L[a] - p[a];
        p[3 + a] = -p[3 + a];
      }
    }
  }
  return scans;
}

// Sort-out: stable-compacts stayers, packs movers into the per-direction
// outboxes (diagonal movers go directly to the diagonal neighbor). The
// break_compaction mutation drops the last record of every non-empty outbox
// — the compaction bug the conservation oracle must catch.
struct Moves {
  std::array<std::int32_t, kDirs> n{};
  std::int32_t total = 0;
};

Moves sort_out(const Config& cfg, const Grid& g, int cell, double* rec,
               std::int32_t* count, const std::array<double*, kDirs>& out) {
  const Box b = box_of(cfg, g, cell);
  const std::array<int, 3> c = g.coords(cell);
  const int dims[3] = {g.gx, g.gy, g.gz};
  Moves m;
  int keep = 0;
  for (int i = 0; i < *count; ++i) {
    const double* p = &rec[static_cast<std::size_t>(i) * kRec];
    int off[3];
    for (int a = 0; a < 3; ++a) {
      assert(p[a] >= b.lo[a] - cfg.cell_width && p[a] < b.hi[a] + cfg.cell_width &&
             "particle hopped two cells");
      off[a] = p[a] < b.lo[a] ? -1 : (p[a] >= b.hi[a] ? 1 : 0);
      // A particle resting exactly on a domain wall stays in the edge cell.
      if (c[static_cast<std::size_t>(a)] + off[a] < 0 ||
          c[static_cast<std::size_t>(a)] + off[a] >= dims[a]) {
        off[a] = 0;
      }
    }
    const int d = (off[0] + 1) + 3 * (off[1] + 1) + 9 * (off[2] + 1);
    if (d == kSelf) {
      std::memmove(&rec[static_cast<std::size_t>(keep) * kRec], p,
                   kRec * sizeof(double));
      ++keep;
    } else {
      assert(g.dir2cell(cell, d) >= 0 && "mover fell off the global domain");
      const int idx = m.n[static_cast<std::size_t>(d)]++;
      std::memcpy(&out[static_cast<std::size_t>(d)][static_cast<std::size_t>(idx) * kRec],
                  p, kRec * sizeof(double));
      ++m.total;
    }
  }
  *count = keep;
  if (cfg.break_compaction) {
    for (int d = 0; d < kDirs; ++d) {
      if (m.n[static_cast<std::size_t>(d)] > 0) {
        --m.n[static_cast<std::size_t>(d)];
        --m.total;
      }
    }
  }
  return m;
}

// Arrival append of the serial reference (the device drivers append
// through cells::integrate).
void append(double* rec, std::int32_t* count, const double* from, int n, int cap) {
  if (*count + n > cap) throw ConfigError("cell overflow: increase capacity_factor");
  std::memcpy(&rec[static_cast<std::size_t>(*count) * kRec], from,
              static_cast<std::size_t>(n) * kRec * sizeof(double));
  *count += static_cast<std::int32_t>(n);
}

// Simulated per-iteration cost of one rank's cell (cf. particles.cc; the
// 3-D scan reads a full 6-double record per pair).
sim::Proc<void> charge_iteration(gpu::BlockCtx& blk, std::int64_t pair_scans,
                                 int particles, std::int64_t shipped, int moved) {
  const double scans = static_cast<double>(pair_scans);
  co_await blk.compute_flops(scans * 18.0 + particles * 12.0);
  co_await blk.mem_traffic(scans * kRec * sizeof(double) +
                           particles * 12.0 * sizeof(double) +
                           static_cast<double>(shipped + moved) * kRec *
                               sizeof(double));
}

// Per-device storage: one field of kRec-double records per cell and slot
// array. Counters keep dense 27-entry rows per cell (kSelf included): the
// MPI-CUDA bookkeeping fetches copy whole rows.
cells::Store make_store(gpu::Device& dev, const Config& cfg, const Grid& g, int rpd,
                        int node_id) {
  cells::Store s(dev, g, node_id, rpd, cfg.capacity(), kRec, /*fields=*/1,
                 /*halo_fields=*/1, /*send_fields=*/1, cells::Counters::kDense);
  for (int r = 0; r < rpd; ++r) {
    const std::vector<std::array<double, kRec>> init =
        initial_particles(cfg, g, s.global(r));
    assert(static_cast<int>(init.size()) <= s.cell.cap);
    for (std::size_t i = 0; i < init.size(); ++i) {
      std::memcpy(s.cell.at(0, static_cast<std::size_t>(r)) + i * kRec, init[i].data(),
                  kRec * sizeof(double));
    }
    s.cell.count[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(init.size());
  }
  return s;
}

// Packs local cell r's band toward every active direction into its send
// slots; returns the records packed.
std::int64_t pack_cell(const Config& cfg, cells::Store& s, int r) {
  std::int64_t shipped = 0;
  for (int d : s.active(r)) {
    const int n = pack_halo(cfg, s.grid(), s.global(r),
                            s.cell.at(0, static_cast<std::size_t>(r)),
                            s.cell.count[static_cast<std::size_t>(r)], d,
                            s.send.at(0, s.block(r, d)));
    s.send.count[s.counter(r, d)] = static_cast<std::int32_t>(n);
    shipped += n;
  }
  return shipped;
}

// Per-cell accumulators of the parallel variants. Each rank writes only its
// own entries, so the parallel executor lanes stay race-free.
struct Tally {
  Tally(const Config& cfg, int cells)
      : halo_recv(static_cast<std::size_t>(cells)),
        halo_bad(halo_recv.size()),
        tickets(halo_recv.size()),
        scans(cfg.record_load ? static_cast<std::size_t>(cfg.iterations) * halo_recv.size()
                              : 0) {}
  std::vector<std::int64_t> halo_recv, halo_bad, tickets;
  std::vector<std::int64_t> scans;  // record_load: charged scans per (iteration, cell)
  std::int64_t& scan(int it, int gc) {
    return scans[static_cast<std::size_t>(it) * halo_recv.size() +
                 static_cast<std::size_t>(gc)];
  }
};

// Halo oracle over local cell r's received slots: tallies the records seen
// and the geometry violations among them.
void audit_halo(const Config& cfg, const cells::Store& s, int r, Tally& tally) {
  const int gc = s.global(r);
  for (int d : s.active(r)) {
    const View v{s.halo.at(0, s.block(r, d)), s.halo.count[s.counter(r, d)]};
    tally.halo_recv[static_cast<std::size_t>(gc)] += v.count;
    tally.halo_bad[static_cast<std::size_t>(gc)] += check_halo_slot(cfg, s.grid(), gc, d, v);
  }
}

// The force neighbourhood of local cell r: its records at kSelf, its halo
// slots elsewhere (empty with exchange off or out of the grid's reach).
std::array<View, kDirs> neighbourhood(const cells::Store& s, int r, bool exchange) {
  std::array<View, kDirs> nb{};
  for (int d = 0; d < kDirs; ++d) {
    if (d == kSelf) {
      nb[static_cast<std::size_t>(d)] = View{s.cell.at(0, static_cast<std::size_t>(r)),
                                             s.cell.count[static_cast<std::size_t>(r)]};
    } else if (s.slot(d) >= 0) {
      nb[static_cast<std::size_t>(d)] =
          View{s.halo.at(0, s.block(r, d)), exchange ? s.halo.count[s.counter(r, d)] : 0};
    }
  }
  return nb;
}

// Sort-out of local cell r into its outbox slots; the per-direction mover
// counts land in the outbox counters.
Moves sort_cell(const Config& cfg, cells::Store& s, int r) {
  std::array<double*, kDirs> out{};
  for (int d = 0; d < kDirs; ++d) {
    if (s.slot(d) >= 0) out[static_cast<std::size_t>(d)] = s.outbox.at(0, s.block(r, d));
  }
  const Moves m = sort_out(cfg, s.grid(), s.global(r), s.cell.at(0, static_cast<std::size_t>(r)),
                           &s.cell.count[static_cast<std::size_t>(r)], out);
  for (int d = 0; d < kDirs; ++d) {
    s.outbox.count[s.counter(r, d)] = m.n[static_cast<std::size_t>(d)];
  }
  return m;
}

// Per-iteration pair-scan imbalance (max over cells / mean over cells).
void push_imbalance(std::vector<double>& out, const std::int64_t* scans, int cells) {
  std::int64_t sum = 0, mx = 0;
  for (int c = 0; c < cells; ++c) {
    sum += scans[c];
    mx = std::max(mx, scans[c]);
  }
  out.push_back(sum > 0 ? static_cast<double>(mx) * cells / static_cast<double>(sum)
                        : 1.0);
}


// Final state of the device cells plus the tallies of one parallel run.
Result collect(const Config& cfg, int rpd, std::vector<cells::Store>& devs,
               const Tally& tally, sim::Dur elapsed) {
  Result res;
  res.elapsed = elapsed;
  for (auto& s : devs) {
    for (int r = 0; r < rpd; ++r) {
      const std::int32_t cnt = s.cell.count[static_cast<std::size_t>(r)];
      res.total_particles += cnt;
      res.max_cell_count = std::max(res.max_cell_count, cnt);
      const double* rec = s.cell.at(0, static_cast<std::size_t>(r));
      for (int i = 0; i < cnt; ++i) {
        const double* q = &rec[static_cast<std::size_t>(i) * kRec];
        res.checksum += std::abs(q[0]) + std::abs(q[1]) + std::abs(q[2]);
        res.momentum_x += q[3];
        res.momentum_y += q[4];
        res.momentum_z += q[5];
      }
    }
  }
  for (std::size_t c = 0; c < tally.halo_recv.size(); ++c) {
    res.halo_received_total += tally.halo_recv[c];
    res.halo_violations += tally.halo_bad[c];
    res.work_tickets += tally.tickets[c];
  }
  if (cfg.record_load) {
    const int cells = static_cast<int>(tally.halo_recv.size());
    for (int it = 0; it < cfg.iterations; ++it) {
      push_imbalance(res.iter_imbalance,
                     &tally.scans[static_cast<std::size_t>(it * cells)], cells);
    }
  }
  return res;
}

}  // namespace

Grid make_grid(const Config& cfg, int num_nodes) {
  const int n = num_nodes * cfg.cells_per_node;
  Grid g;
  if (cfg.grid_x > 0 || cfg.grid_y > 0 || cfg.grid_z > 0) {
    if (cfg.grid_x <= 0 || cfg.grid_y <= 0 || cfg.grid_z <= 0) {
      throw ConfigError("explicit dpd3d grid needs grid_x, grid_y and grid_z > 0");
    }
    g.gx = cfg.grid_x;
    g.gy = cfg.grid_y;
    g.gz = cfg.grid_z;
  } else {
    const std::array<int, 3> d = net::exact_grid_dims(n);
    g.gx = d[0];
    g.gy = d[1];
    g.gz = d[2];
  }
  if (g.cells() != n) {
    throw ConfigError("dpd3d rank grid " + std::to_string(g.gx) + "x" +
                      std::to_string(g.gy) + "x" + std::to_string(g.gz) +
                      " is not a bijection onto " + std::to_string(n) + " ranks");
  }
  return g;
}

int initial_count(const Config& cfg, const Grid& grid, int cell) {
  return initial_counts(cfg, grid)[static_cast<std::size_t>(cell)];
}

bool ship_to_dir(const Config& cfg, const Grid& grid, int cell, int dir, double x,
                 double y, double z) {
  if (dir == kSelf || grid.dir2cell(cell, dir) < 0) return false;
  const Box b = box_of(cfg, grid, cell);
  const std::array<int, 3> o = dir_offset(dir);
  const double pos[3] = {x, y, z};
  for (int a = 0; a < 3; ++a) {
    // A particle exactly `cutoff` from the face cannot interact across it
    // (the force loop excludes r >= cutoff), so the band test is strict.
    if (o[static_cast<std::size_t>(a)] < 0 && !(pos[a] - b.lo[a] < cfg.cutoff)) {
      return false;
    }
    if (o[static_cast<std::size_t>(a)] > 0 && !(b.hi[a] - pos[a] < cfg.cutoff)) {
      return false;
    }
  }
  return true;
}

std::vector<std::array<double, 6>> initial_particles(const Config& cfg,
                                                     const Grid& grid, int cell) {
  const std::vector<int> counts = initial_counts(cfg, grid);
  const Box b = box_of(cfg, grid, cell);
  sim::Rng rng(cfg.seed ^ (0x9e37ull * static_cast<std::uint64_t>(cell + 1)));
  const double vscale = cfg.cell_width / 10.0;
  // Coherent drift direction for the skewed blob: mostly +x, so the dense
  // region marches across the longest grid axis.
  const double drift[3] = {1.0, 0.5, 0.25};
  std::vector<std::array<double, 6>> out(
      static_cast<std::size_t>(counts[static_cast<std::size_t>(cell)]));
  for (auto& p : out) {
    for (int a = 0; a < 3; ++a) {
      p[static_cast<std::size_t>(a)] = b.lo[a] + rng.next_double() * cfg.cell_width;
    }
    for (int a = 0; a < 3; ++a) {
      p[static_cast<std::size_t>(3 + a)] = rng.uniform(-0.5, 0.5) * vscale;
      if (cfg.density == Density::kSkewed) {
        p[static_cast<std::size_t>(3 + a)] +=
            cfg.skew_drift * cfg.cell_width * drift[a];
      }
    }
  }
  return out;
}

Result reference(const Config& cfg, int num_nodes) {
  const Grid g = make_grid(cfg, num_nodes);
  const int cells = g.cells();
  const int cap = cfg.capacity();
  const double L[3] = {g.gx * cfg.cell_width, g.gy * cfg.cell_width,
                       g.gz * cfg.cell_width};

  const std::size_t slots = static_cast<std::size_t>(cells) * kDirs;
  const std::size_t slot_doubles = slots * static_cast<std::size_t>(cap) * kRec;
  std::vector<double> cell(static_cast<std::size_t>(cells) *
                           static_cast<std::size_t>(cap) * kRec);
  std::vector<std::int32_t> count(static_cast<std::size_t>(cells), 0);
  std::vector<double> halo(slot_doubles), outbox(slot_doubles);
  std::vector<std::int32_t> hcount(slots, 0), obcount(slots, 0);
  auto cell_recs = [&](int c) {
    return &cell[static_cast<std::size_t>(c) * static_cast<std::size_t>(cap) * kRec];
  };
  auto slot_recs = [&](std::vector<double>& a, int c, int d) {
    return &a[(static_cast<std::size_t>(c) * kDirs + static_cast<std::size_t>(d)) *
              static_cast<std::size_t>(cap) * kRec];
  };
  auto slot_ctr = [&](std::vector<std::int32_t>& a, int c, int d) -> std::int32_t& {
    return a[static_cast<std::size_t>(c) * kDirs + static_cast<std::size_t>(d)];
  };

  for (int c = 0; c < cells; ++c) {
    const std::vector<std::array<double, kRec>> init = initial_particles(cfg, g, c);
    for (std::size_t i = 0; i < init.size(); ++i) {
      std::memcpy(&cell_recs(c)[i * kRec], init[i].data(), kRec * sizeof(double));
    }
    count[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(init.size());
  }

  Result res;
  std::vector<std::int64_t> scans(static_cast<std::size_t>(cells), 0);
  for (int it = 0; it < cfg.iterations; ++it) {
    // 1) halo exchange: pack the sender's band toward each neighbor.
    if (cfg.exchange) {
      for (int c = 0; c < cells; ++c) {
        for (int d = 0; d < kDirs; ++d) {
          if (d == kSelf) continue;
          const int nb = g.dir2cell(c, d);
          if (nb < 0) {
            slot_ctr(hcount, c, d) = 0;
            continue;
          }
          const int n = pack_halo(cfg, g, nb, cell_recs(nb),
                                  count[static_cast<std::size_t>(nb)], opposite(d),
                                  slot_recs(halo, c, d));
          slot_ctr(hcount, c, d) = static_cast<std::int32_t>(n);
          res.halo_received_total += n;
          res.halo_violations += check_halo_slot(
              cfg, g, c, d, View{slot_recs(halo, c, d), static_cast<std::int32_t>(n)});
        }
      }
    }
    // 2) force + update.
    if (cfg.compute) {
      for (int c = 0; c < cells; ++c) {
        std::array<View, kDirs> nb;
        for (int d = 0; d < kDirs; ++d) {
          nb[static_cast<std::size_t>(d)] =
              d == kSelf
                  ? View{cell_recs(c), count[static_cast<std::size_t>(c)]}
                  : View{slot_recs(halo, c, d),
                         cfg.exchange ? slot_ctr(hcount, c, d) : 0};
        }
        scans[static_cast<std::size_t>(c)] = force_and_update(
            cfg, nb, cell_recs(c), count[static_cast<std::size_t>(c)], L);
      }
    } else {
      std::fill(scans.begin(), scans.end(), 0);
    }
    if (cfg.record_load) push_imbalance(res.iter_imbalance, scans.data(), cells);
    // 3) sort out movers.
    if (cfg.compute) {
      for (int c = 0; c < cells; ++c) {
        std::array<double*, kDirs> out;
        for (int d = 0; d < kDirs; ++d) out[static_cast<std::size_t>(d)] =
            slot_recs(outbox, c, d);
        const Moves m = sort_out(cfg, g, c, cell_recs(c),
                                 &count[static_cast<std::size_t>(c)], out);
        for (int d = 0; d < kDirs; ++d) {
          slot_ctr(obcount, c, d) = m.n[static_cast<std::size_t>(d)];
        }
      }
    }
    // 4+5) deliver and integrate, directions ascending — the same order the
    // parallel variants drain their inbox slots in.
    if (cfg.exchange && cfg.compute) {
      for (int c = 0; c < cells; ++c) {
        for (int d = 0; d < kDirs; ++d) {
          if (d == kSelf) continue;
          const int nb = g.dir2cell(c, d);
          if (nb < 0) continue;
          const std::int32_t n = slot_ctr(obcount, nb, opposite(d));
          if (n > 0) {
            append(cell_recs(c), &count[static_cast<std::size_t>(c)],
                   slot_recs(outbox, nb, opposite(d)), n, cap);
          }
        }
      }
    }
  }

  for (int c = 0; c < cells; ++c) {
    const std::int32_t cnt = count[static_cast<std::size_t>(c)];
    res.total_particles += cnt;
    res.max_cell_count = std::max(res.max_cell_count, cnt);
    for (int i = 0; i < cnt; ++i) {
      const double* q = &cell_recs(c)[static_cast<std::size_t>(i) * kRec];
      res.checksum += std::abs(q[0]) + std::abs(q[1]) + std::abs(q[2]);
      res.momentum_x += q[3];
      res.momentum_y += q[4];
      res.momentum_z += q[5];
    }
  }
  return res;
}

Result run_dcuda(Cluster& cluster, const Config& cfg) {
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  cells::require_cell_per_rank(cfg.cells_per_node, rpd);
  const Grid grid = make_grid(cfg, nodes);
  const double L[3] = {grid.gx * cfg.cell_width, grid.gy * cfg.cell_width,
                       grid.gz * cfg.cell_width};

  std::vector<cells::Store> devs;
  // Rebalance work tickets, received and sent, indexed like the counters.
  std::vector<std::span<std::int64_t>> ticket, tksend;
  devs.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    devs.push_back(make_store(cluster.device(n), cfg, grid, rpd, n));
    const std::size_t slots = devs.back().halo.count.size();
    ticket.push_back(cluster.device(n).alloc<std::int64_t>(slots));
    tksend.push_back(cluster.device(n).alloc<std::int64_t>(slots));
  }

  Tally tally(cfg, grid.cells());
  const sim::Dur elapsed = cluster.run([&](Context& ctx) -> sim::Proc<void> {
    const int gc = comm_rank(ctx, kCommWorld);
    const int node_id = ctx.node->node();
    const int r = ctx.device_rank;
    cells::Store& s = devs[static_cast<std::size_t>(node_id)];
    std::span<std::int64_t> tk = ticket[static_cast<std::size_t>(node_id)];
    std::span<std::int64_t> tks = tksend[static_cast<std::size_t>(node_id)];

    cells::Windows whalo = co_await cells::win_create(ctx, s.halo);
    cells::Windows winbox = co_await cells::win_create(ctx, s.inbox);
    Window wtk = co_await win_create(ctx, kCommWorld, tk);

    const std::array<int, kDirs> d2r = grid.dir2rank(gc);
    const std::vector<int>& active = s.active(r);
    const int n_active = static_cast<int>(active.size());
    auto hcount = [&](int d) { return s.halo.count[s.counter(r, d)]; };

    for (int it = 0; it < cfg.iterations; ++it) {
      const std::int32_t my_count = s.cell.count[static_cast<std::size_t>(r)];
      std::int64_t shipped = 0;

      // 1) 27-direction halo exchange: one payload put + one notified count
      // put per active direction — the many-small-messages pattern.
      if (cfg.exchange) {
        shipped = pack_cell(cfg, s, r);
        co_await cells::fan_out(ctx, s, r, s.send, whalo, kHaloTag, /*skip_empty=*/true);
        audit_halo(cfg, s, r, tally);
      }

      // 2) force + update.
      std::int64_t scans = 0;
      if (cfg.compute) {
        scans = force_and_update(cfg, neighbourhood(s, r, cfg.exchange),
                                 s.cell.at(0, static_cast<std::size_t>(r)),
                                 s.cell.count[static_cast<std::size_t>(r)], L);
      }
      // Rebalance: ship work tickets so underloaded neighbours adopt part of
      // this rank's pair-scan cost. The halo counts double as the load map,
      // so the decision needs no extra communication; every rank sends one
      // (possibly zero) ticket per active direction, keeping wait counts
      // static. Physics stays bitwise identical — only the charge moves.
      std::int64_t charge_scans = scans;
      if (cfg.rebalance && cfg.exchange && cfg.compute) {
        double load_sum = my_count;
        for (int d : active) load_sum += hcount(d);
        const double avg = load_sum / (n_active + 1);
        std::array<std::int64_t, kDirs> give{};
        std::int64_t offloaded = 0;
        if (my_count > cfg.rebalance_trigger * avg && my_count > 0 && scans > 0) {
          const std::int64_t target_scans =
              static_cast<std::int64_t>(scans * ((my_count - avg) / my_count));
          std::vector<int> under;
          for (int d : active) {
            if (hcount(d) < avg) under.push_back(d);
          }
          if (!under.empty()) {
            const std::int64_t share =
                target_scans / static_cast<std::int64_t>(under.size());
            std::int64_t rem = target_scans % static_cast<std::int64_t>(under.size());
            for (int d : under) {
              give[static_cast<std::size_t>(d)] = share + (rem > 0 ? 1 : 0);
              if (rem > 0) --rem;
              offloaded += give[static_cast<std::size_t>(d)];
            }
          }
        }
        for (int d : active) {
          std::int64_t& sent = tks[s.counter(r, d)];
          sent = give[static_cast<std::size_t>(d)];
          if (sent > 0) ++tally.tickets[static_cast<std::size_t>(gc)];
          const int t = d2r[static_cast<std::size_t>(d)];
          co_await put_notify(ctx, wtk, t, s.counter(t % rpd, opposite(d)),
                              std::span<const std::int64_t>(&sent, 1), kTicketTag);
        }
        co_await flush(ctx);
        co_await wait_notifications(ctx, wtk, kAnySource, kTicketTag, n_active);
        std::int64_t adopted = 0;
        for (int d : active) adopted += tk[s.counter(r, d)];
        charge_scans = scans - offloaded + adopted;
      }
      if (cfg.record_load) {
        // The load curve tracks the *charged* scans, so with rebalance on it
        // shows the flattening that work adoption buys.
        tally.scan(it, gc) = charge_scans;
      }

      // 3) sort out movers into the per-direction outboxes.
      Moves moves{};
      if (cfg.compute) moves = sort_cell(cfg, s, r);

      // 4) migrate movers into the neighbors' inboxes.
      if (cfg.exchange) {
        co_await cells::fan_out(ctx, s, r, s.outbox, winbox, kMigrateTag,
                                /*skip_empty=*/true);
      }

      // 5) integrate arrivals, directions ascending.
      const std::int32_t arrivals = cells::integrate(s, r, /*direct=*/false);
      if (cfg.compute) {
        co_await charge_iteration(*ctx.block, charge_scans, my_count, shipped,
                                  moves.total + arrivals);
      }
    }

    co_await barrier(ctx, kCommWorld);
    co_await cells::win_free(ctx, whalo);
    co_await cells::win_free(ctx, winbox);
    co_await win_free(ctx, wtk);
  });

  return collect(cfg, rpd, devs, tally, elapsed);
}

Result run_mpi_cuda(Cluster& cluster, const Config& cfg) {
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  cells::require_cell_per_rank(cfg.cells_per_node, rpd);
  const Grid grid = make_grid(cfg, nodes);
  const double L[3] = {grid.gx * cfg.cell_width, grid.gy * cfg.cell_width,
                       grid.gz * cfg.cell_width};

  std::vector<cells::Store> devs;
  devs.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) devs.push_back(make_store(cluster.device(n), cfg, grid, rpd, n));

  Tally tally(cfg, grid.cells());
  const sim::Dur elapsed = cluster.run_hosts([&](int n) -> sim::Proc<void> {
    gpu::Device& dev = cluster.device(n);
    mpi::Endpoint& ep = cluster.mpi(n);
    cells::Store& s = devs[static_cast<std::size_t>(n)];
    const gpu::LaunchConfig lc{rpd, 128, 26};
    std::vector<std::int64_t> shipped(static_cast<std::size_t>(rpd), 0);
    std::vector<std::int32_t> particles(static_cast<std::size_t>(rpd), 0);

    for (int it = 0; it < cfg.iterations; ++it) {
      // Bookkeeping counters to the host: the per-iteration D2H fetches the
      // paper calls out as MPI-CUDA overhead.
      co_await cells::fetch(dev, s.cell);

      if (cfg.exchange) {
        // 1a) pack kernel: every active direction's band into its send buffer.
        co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          const std::int64_t sh = pack_cell(cfg, s, r);
          shipped[static_cast<std::size_t>(r)] = sh;
          co_await blk.mem_traffic(static_cast<double>(sh) * kRec * sizeof(double));
        }, "pack");
        co_await cells::fetch(dev, s.send);

        // 1b) device-boundary counts, then sized payloads.
        co_await cells::exchange_boundary(dev, ep, s, s.send, s.halo, /*skip_empty=*/true);

        // 1c) intra-device halos: copy the neighbor's packed send buffer.
        co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const cells::Copied c = cells::copy_local(s, blk.block_id(), s.send, s.halo);
          co_await blk.mem_traffic(2.0 * static_cast<double>(c.total) * kRec *
                                   sizeof(double));
        }, "halo");
      }

      // 2) force + update kernel (plus the halo oracle accumulation).
      co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
        const int r = blk.block_id();
        const int gc = s.global(r);
        if (cfg.exchange) audit_halo(cfg, s, r, tally);
        std::int64_t sc = 0;
        if (cfg.compute) {
          particles[static_cast<std::size_t>(r)] =
              s.cell.count[static_cast<std::size_t>(r)];
          sc = force_and_update(cfg, neighbourhood(s, r, cfg.exchange),
                                s.cell.at(0, static_cast<std::size_t>(r)),
                                s.cell.count[static_cast<std::size_t>(r)], L);
          co_await blk.compute_flops(static_cast<double>(sc) * 18.0 +
                                     particles[static_cast<std::size_t>(r)] * 12.0);
          co_await blk.mem_traffic(static_cast<double>(sc) * kRec * sizeof(double) +
                                   particles[static_cast<std::size_t>(r)] * 12.0 *
                                       sizeof(double));
        }
        if (cfg.record_load) tally.scan(it, gc) = sc;
      }, "force");

      // 3) sort kernel: movers into the per-direction outboxes.
      if (cfg.compute) {
        co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          sort_cell(cfg, s, r);
          co_await blk.mem_traffic(
              static_cast<double>(s.cell.count[static_cast<std::size_t>(r)]) * kRec *
              sizeof(double));
        }, "sort");
      }

      if (cfg.exchange) {
        // 4) migrate across the device boundary (second D2H counter fetch).
        co_await cells::fetch(dev, s.outbox);
        co_await cells::exchange_boundary(dev, ep, s, s.outbox, s.inbox, /*skip_empty=*/true);

        // 5) integrate kernel: intra-device movers straight from the neighbor
        // outboxes, device-edge arrivals from the MPI-filled inbox slots —
        // the same data in the same ascending direction order either way.
        co_await dev.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r = blk.block_id();
          const std::int32_t arrivals = cells::integrate(s, r, /*direct=*/true);
          co_await blk.mem_traffic(
              static_cast<double>(arrivals + shipped[static_cast<std::size_t>(r)]) *
                  kRec * sizeof(double) +
              particles[static_cast<std::size_t>(r)] * 2.0 * sizeof(double));
        }, "integrate");
      }
    }
  });

  return collect(cfg, rpd, devs, tally, elapsed);
}

}  // namespace dcuda::apps::dpd3d
