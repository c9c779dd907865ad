#include "apps/spmv.h"

#include <cmath>
#include <cstring>
#include <string>

#include "sim/config.h"
#include "sim/random.h"

namespace dcuda::apps::spmv {

namespace {

int isqrt(int n) {
  int r = static_cast<int>(std::lround(std::sqrt(static_cast<double>(n))));
  if (r * r != n) {
    throw ConfigError("spmv requires a square number of nodes (1, 4, 9, ...), got " +
                      std::to_string(n));
  }
  return r;
}

// Throws dcuda::ConfigError unless the patch rows split evenly over the ranks.
void require_even_rows(int n_dev, int rpd) {
  if (n_dev % rpd != 0) {
    throw ConfigError("spmv n_dev (" + std::to_string(n_dev) +
                      ") must be divisible by ranks_per_device (" +
                      std::to_string(rpd) + ")");
  }
}

// Local SpMV over rows [r0, r1) of a patch; x is the column chunk.
// Returns nnz touched (cost model).
std::int64_t spmv_rows(const CsrPatch& a, std::span<const double> x,
                       std::span<double> y, int r0, int r1, bool accumulate) {
  std::int64_t nnz = 0;
  for (int r = r0; r < r1; ++r) {
    double acc = accumulate ? y[static_cast<size_t>(r)] : 0.0;
    for (std::int32_t k = a.row_ptr[static_cast<size_t>(r)];
         k < a.row_ptr[static_cast<size_t>(r) + 1]; ++k) {
      acc += a.val[static_cast<size_t>(k)] *
             x[static_cast<size_t>(a.col[static_cast<size_t>(k)])];
      ++nnz;
    }
    y[static_cast<size_t>(r)] = acc;
  }
  return nnz;
}

sim::Proc<void> charge_spmv(gpu::BlockCtx& blk, std::int64_t nnz, int rows) {
  co_await blk.compute_flops(static_cast<double>(nnz) * 2.0);
  // col index + value + gathered x entry per nnz, plus the y row write.
  co_await blk.mem_traffic(static_cast<double>(nnz) * 20.0 + rows * 8.0);
}

}  // namespace

CsrPatch make_patch(const Config& cfg, int brow, int bcol) {
  CsrPatch p;
  const int n = cfg.n_dev;
  const int per_row = std::max(1, static_cast<int>(cfg.density * n));
  p.row_ptr.resize(static_cast<size_t>(n) + 1);
  p.col.reserve(static_cast<size_t>(n) * per_row);
  p.val.reserve(static_cast<size_t>(n) * per_row);
  sim::Rng rng(cfg.seed ^ (static_cast<std::uint64_t>(brow) << 32) ^
               static_cast<std::uint64_t>(bcol + 1));
  for (int r = 0; r < n; ++r) {
    p.row_ptr[static_cast<size_t>(r)] = static_cast<std::int32_t>(p.col.size());
    for (int k = 0; k < per_row; ++k) {
      p.col.push_back(static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(n))));
      p.val.push_back(rng.uniform(-1.0, 1.0));
    }
  }
  p.row_ptr[static_cast<size_t>(n)] = static_cast<std::int32_t>(p.col.size());
  return p;
}

double input_value(std::int64_t i) { return std::sin(0.01 * static_cast<double>(i)) + 1.0; }

double reference_checksum(const Config& cfg, int num_nodes) {
  const int p = isqrt(num_nodes);
  const int n = cfg.n_dev;
  double sum = 0.0;
  // y(brow) = sum_bcol A(brow,bcol) x(bcol); accumulate patch by patch in
  // bcol order (matches the tree reduction up to FP reassociation).
  for (int brow = 0; brow < p; ++brow) {
    std::vector<double> y(static_cast<size_t>(n), 0.0);
    for (int bcol = 0; bcol < p; ++bcol) {
      CsrPatch a = make_patch(cfg, brow, bcol);
      std::vector<double> x(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i)
        x[static_cast<size_t>(i)] = input_value(static_cast<std::int64_t>(bcol) * n + i);
      spmv_rows(a, x, y, 0, n, /*accumulate=*/true);
    }
    for (double v : y) sum += v;
  }
  return sum;
}

Result run_dcuda(Cluster& cluster, const Config& cfg) {
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  const int p = isqrt(nodes);
  const int n = cfg.n_dev;
  require_even_rows(n, rpd);
  const int rows_pr = n / rpd;  // rows (and slice elems) per rank

  // Reduction rounds (binomial tree height). Each round receives into its
  // own slot of yrecv: notifications carry ordering per (source, tag) but
  // data from *different* sources does not, so sharing one landing buffer
  // across rounds would let a later sender overwrite an unconsumed slice.
  int rounds = 0;
  for (int step = 1; step < p; step *= 2) ++rounds;

  // Per-device data. Node id = brow * p + bcol.
  struct Dev {
    CsrPatch a;
    std::span<double> x;       // column input chunk
    std::span<double> y;       // partial output (accumulated in reduction)
    std::span<double> yrecv;   // reduction receive buffer, one slot per round
  };
  std::vector<Dev> devs(static_cast<size_t>(nodes));
  for (int node = 0; node < nodes; ++node) {
    const int brow = node / p, bcol = node % p;
    Dev& d = devs[static_cast<size_t>(node)];
    d.a = make_patch(cfg, brow, bcol);
    auto& gd = cluster.device(node);
    d.x = gd.alloc<double>(static_cast<size_t>(n));
    d.y = gd.alloc<double>(static_cast<size_t>(n));
    d.yrecv = gd.alloc<double>(static_cast<size_t>(n) * std::max(1, rounds));
    if (brow == 0) {  // the input vector lives along the first row
      for (int i = 0; i < n; ++i)
        d.x[static_cast<size_t>(i)] = input_value(static_cast<std::int64_t>(bcol) * n + i);
    }
  }

  Result res;
  res.elapsed = cluster.run([&](Context& ctx) -> sim::Proc<void> {
    const int node = ctx.node->node();
    const int brow = node / p, bcol = node % p;
    const int r = ctx.device_rank;
    Dev& d = devs[static_cast<size_t>(node)];

    Window wx = co_await win_create(ctx, kCommWorld, d.x);
    Window wy = co_await win_create(ctx, kCommWorld, d.yrecv);

    // Column broadcast tree, hierarchical: a binomial tree over the column's
    // devices moves the chunk across the network once per device (rank 0 of
    // each device forwards), then an in-device binary tree of zero-copy
    // notified puts fans the completion out to the local ranks. Total depth
    // log2(p) + log2(rpd) — the deeper tree of the over-decomposed variant —
    // while every message still carries the full chunk.
    const int my_rows0 = r * rows_pr;  // this rank's slice of the patch rows
    auto rank_of = [&](int dev_row, int local) {
      return (dev_row * p + bcol) * rpd + local;
    };

    for (int it = 0; it < cfg.iterations; ++it) {
      const int tag_b = 10 + it * 8;
      // 1) column broadcast of the full x chunk.
      if (cfg.exchange && (p > 1 || rpd > 1)) {
        if (r == 0) {
          // Cross-device stage (rank 0 only): binomial over device rows.
          if (p > 1) {
            if (brow != 0) co_await wait_notifications(ctx, wx, kAnySource, tag_b, 1);
            for (int child = 2 * brow + 1; child <= 2 * brow + 2; ++child) {
              if (child >= p) break;
              co_await put_notify(ctx, wx, rank_of(child, 0), 0,
                                  std::span<const double>(d.x), tag_b);
            }
          }
        } else {
          // In-device stage: wait for the parent's (zero-copy) notification.
          co_await wait_notifications(ctx, wx, kAnySource, tag_b, 1);
        }
        for (int child = 2 * r + 1; child <= 2 * r + 2; ++child) {
          if (child >= rpd) break;
          co_await put_notify(ctx, wx, rank_of(brow, child), 0,
                              std::span<const double>(d.x), tag_b);
        }
        co_await flush(ctx);
      }

      // 2) local product over this rank's rows.
      if (cfg.compute) {
        const std::int64_t nnz =
            spmv_rows(d.a, d.x, d.y, my_rows0, my_rows0 + rows_pr, false);
        co_await charge_spmv(*ctx.block, nnz, rows_pr);
      }

      // 3) row reduction (binomial tree over the pc devices of the row,
      // one message per rank: rpd small slices instead of one big one).
      if (cfg.exchange && p > 1) {
        int round = 0;
        for (int step = 1; step < p; step *= 2, ++round) {
          const int tag_r = tag_b + 1 + round;
          const std::size_t slot = static_cast<size_t>(round) * n;
          if (bcol % (2 * step) == step) {
            // Send my slice of the partial sum to the peer and stop.
            const int peer_node = brow * p + (bcol - step);
            const int peer_rank = peer_node * rpd + r;
            co_await put_notify(ctx, wy, peer_rank,
                                slot + static_cast<size_t>(my_rows0),
                                std::span<const double>(
                                    &d.y[static_cast<size_t>(my_rows0)],
                                    static_cast<size_t>(rows_pr)),
                                tag_r);
            co_await flush(ctx);
            break;
          }
          if (bcol % (2 * step) == 0 && bcol + step < p) {
            co_await wait_notifications(ctx, wy, kAnySource, tag_r, 1);
            for (int i = my_rows0; i < my_rows0 + rows_pr; ++i)
              d.y[static_cast<size_t>(i)] += d.yrecv[slot + static_cast<size_t>(i)];
            if (cfg.compute) {
              co_await ctx.block->mem_traffic(rows_pr * 3.0 * sizeof(double));
            }
          }
        }
      }

      // 4) barrier emulating a synchronized follow-up step (worst case for
      // overlap, §IV-C).
      co_await barrier(ctx, kCommWorld);
    }

    co_await win_free(ctx, wx);
    co_await win_free(ctx, wy);
  });

  // Output lives along the first column (bcol == 0).
  for (int node = 0; node < nodes; ++node) {
    if (node % p != 0) continue;
    for (double v : devs[static_cast<size_t>(node)].y) res.checksum += v;
  }
  return res;
}

Result run_mpi_cuda(Cluster& cluster, const Config& cfg) {
  const int nodes = cluster.num_nodes();
  const int rpd = cluster.ranks_per_device();
  const int p = isqrt(nodes);
  const int n = cfg.n_dev;
  require_even_rows(n, rpd);
  const int rows_pr = n / rpd;

  struct Dev {
    CsrPatch a;
    std::span<double> x, y, yrecv;
  };
  std::vector<Dev> devs(static_cast<size_t>(nodes));
  for (int node = 0; node < nodes; ++node) {
    const int brow = node / p, bcol = node % p;
    Dev& d = devs[static_cast<size_t>(node)];
    d.a = make_patch(cfg, brow, bcol);
    auto& gd = cluster.device(node);
    d.x = gd.alloc<double>(static_cast<size_t>(n));
    d.y = gd.alloc<double>(static_cast<size_t>(n));
    d.yrecv = gd.alloc<double>(static_cast<size_t>(n));
    if (brow == 0) {
      for (int i = 0; i < n; ++i)
        d.x[static_cast<size_t>(i)] = input_value(static_cast<std::int64_t>(bcol) * n + i);
    }
  }

  Result res;
  res.elapsed = cluster.run_hosts([&](int node) -> sim::Proc<void> {
    Dev& d = devs[static_cast<size_t>(node)];
    auto& gd = cluster.device(node);
    mpi::Endpoint& ep = cluster.mpi(node);
    const int brow = node / p, bcol = node % p;
    const gpu::LaunchConfig lc{rpd, 128, 26};
    const gpu::MemRef xref = gd.ref(d.x);
    const gpu::MemRef yrecv_ref = gd.ref(d.yrecv);

    for (int it = 0; it < cfg.iterations; ++it) {
      const int tag_b = 10 + it * 8;
      // 1) column broadcast, binomial tree over the p devices of the column
      // (device at column position brow; messages are the full 64 kB chunk:
      // large device buffers -> host staged by CUDA-aware MPI).
      if (cfg.exchange && p > 1) {
        if (brow != 0) {
          co_await ep.recv(mpi::kAnySource, tag_b, xref);
        }
        for (int child = 2 * brow + 1; child <= 2 * brow + 2; ++child) {
          if (child >= p) break;
          co_await ep.send(child * p + bcol, tag_b, xref);
        }
      }
      // 2) product kernel.
      if (cfg.compute) {
        co_await gd.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
          const int r0 = blk.block_id() * rows_pr;
          const std::int64_t nnz = spmv_rows(d.a, d.x, d.y, r0, r0 + rows_pr, false);
          co_await charge_spmv(blk, nnz, rows_pr);
        }, "spmv");
      }
      // 3) row reduction, binomial tree over the row's devices; the message
      // is the whole n-element partial vector, the add runs as a kernel.
      if (cfg.exchange && p > 1) {
        for (int step = 1; step < p; step *= 2) {
          const int tag_r = tag_b + 1 + static_cast<int>(std::log2(step));
          if (bcol % (2 * step) == step) {
            co_await ep.send(brow * p + (bcol - step), tag_r, gd.ref(d.y));
            break;
          }
          if (bcol % (2 * step) == 0 && bcol + step < p) {
            co_await ep.recv(brow * p + (bcol + step), tag_r, yrecv_ref);
            co_await gd.launch(lc, [&](gpu::BlockCtx& blk) -> sim::Proc<void> {
              const int r0 = blk.block_id() * rows_pr;
              for (int i = r0; i < r0 + rows_pr; ++i)
                d.y[static_cast<size_t>(i)] += d.yrecv[static_cast<size_t>(i)];
              co_await blk.mem_traffic(rows_pr * 3.0 * sizeof(double));
            }, "add");
          }
        }
      }
      // 4) barrier.
      co_await ep.barrier();
    }
  });

  for (int node = 0; node < nodes; ++node) {
    if (node % p != 0) continue;
    for (double v : devs[static_cast<size_t>(node)].y) res.checksum += v;
  }
  return res;
}

}  // namespace dcuda::apps::spmv
