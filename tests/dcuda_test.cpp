// Integration tests for the dCUDA device-side library and host runtime:
// window management, notified put/get over shared and distributed memory,
// notification matching with wildcards, flush, barrier, logging, and the
// latency calibration the paper reports.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "sim/units.h"

namespace dcuda {
namespace {

using sim::micros;
using sim::Proc;

sim::MachineConfig small_machine(int nodes) {
  sim::MachineConfig cfg;
  cfg.num_nodes = nodes;
  return cfg;
}

// Most tests use few ranks per device to keep them readable.
constexpr int kFewRanks = 4;

TEST(DcudaInit, RankIdentities) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = kFewRanks});
  std::vector<int> world_ranks, device_ranks;
  c.run([&](Context& ctx) -> Proc<void> {
    world_ranks.push_back(comm_rank(ctx, kCommWorld));
    device_ranks.push_back(comm_rank(ctx, kCommDevice));
    EXPECT_EQ(comm_size(ctx, kCommWorld), 8);
    EXPECT_EQ(comm_size(ctx, kCommDevice), kFewRanks);
    co_return;
  });
  EXPECT_EQ(world_ranks.size(), 8u);
  std::sort(world_ranks.begin(), world_ranks.end());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(world_ranks[static_cast<size_t>(i)], i);
  std::sort(device_ranks.begin(), device_ranks.end());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(device_ranks[static_cast<size_t>(i)], i / 2);
}

TEST(DcudaWindow, CreateAndFreeCollective) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = kFewRanks});
  std::vector<std::span<double>> bufs;
  for (int n = 0; n < 2; ++n) {
    for (int r = 0; r < kFewRanks; ++r) bufs.push_back(c.device(n).alloc<double>(64));
  }
  int created = 0;
  c.run([&](Context& ctx) -> Proc<void> {
    auto& buf = bufs[static_cast<size_t>(ctx.world_rank)];
    Window w = co_await win_create(ctx, kCommWorld, buf);
    EXPECT_TRUE(w.valid());
    EXPECT_GE(w.global_id, 0);
    ++created;
    co_await win_free(ctx, w);
    EXPECT_FALSE(w.valid());
  });
  EXPECT_EQ(created, 8);
}

TEST(DcudaWindow, IdTranslationWithDivergentLocalIds) {
  // Ranks create different numbers of device-communicator windows before a
  // world window, so device-side ids diverge; the block manager's hash map
  // must still translate them to one consistent global id (§III-B).
  Cluster c({.machine = small_machine(2), .ranks_per_device = 2});
  std::vector<std::span<double>> bufs;
  for (int n = 0; n < 2; ++n)
    for (int r = 0; r < 2; ++r) bufs.push_back(c.device(n).alloc<double>(16));
  std::vector<int> global_ids(4, -99);
  c.run([&](Context& ctx) -> Proc<void> {
    auto& buf = bufs[static_cast<size_t>(ctx.world_rank)];
    // Node 0's ranks burn extra device-window ids first (device-communicator
    // collectives involve all ranks of one device, a strict subset of the
    // world — exactly the id-divergence case of §III-B).
    std::vector<Window> extra;
    const int extras = ctx.node->node() == 0 ? 2 : 0;
    for (int i = 0; i < extras; ++i) {
      extra.push_back(co_await win_create(ctx, kCommDevice, buf));
    }
    Window w = co_await win_create(ctx, kCommWorld, buf);
    global_ids[static_cast<size_t>(ctx.world_rank)] = w.global_id;
    // Exercise the translation: neighbor exchange through the window.
    const int peer = ctx.world_rank ^ 1;
    double v = 100.0 + ctx.world_rank;
    co_await put_notify(ctx, w, peer, 0, sizeof(double), &v, 0);
    co_await wait_notifications(ctx, w, kAnySource, 0, 1);
    EXPECT_DOUBLE_EQ(buf[0], 100.0 + peer);
    for (auto& e : extra) co_await win_free(ctx, e);
    co_await win_free(ctx, w);
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(global_ids[static_cast<size_t>(r)], global_ids[0]);
}

TEST(DcudaPut, DistributedMemoryMovesData) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = 1});
  auto a = c.device(0).alloc<int>(32);
  auto b = c.device(1).alloc<int>(32);
  for (int i = 0; i < 32; ++i) {
    a[static_cast<size_t>(i)] = i;
    b[static_cast<size_t>(i)] = -1;
  }
  c.run([&](Context& ctx) -> Proc<void> {
    auto buf = ctx.world_rank == 0 ? a : b;
    Window w = co_await win_create(ctx, kCommWorld, buf);
    if (ctx.world_rank == 0) {
      co_await put_notify(ctx, w, 1, 0, 32 * sizeof(int), a.data(), 7);
    } else {
      co_await wait_notifications(ctx, w, 0, 7, 1);
      for (int i = 0; i < 32; ++i) EXPECT_EQ(b[static_cast<size_t>(i)], i);
    }
    co_await win_free(ctx, w);
  });
}

TEST(DcudaPut, SharedMemoryRanksSameDevice) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<int>(64);  // two ranks, 32 ints each
  for (auto& x : mem) x = 0;
  c.run([&](Context& ctx) -> Proc<void> {
    std::span<int> mine = mem.subspan(static_cast<size_t>(ctx.world_rank) * 32, 32);
    Window w = co_await win_create(ctx, kCommWorld, mine);
    if (ctx.world_rank == 0) {
      int vals[4] = {9, 8, 7, 6};
      co_await put_notify(ctx, w, 1, 0, sizeof(vals), vals, 1);
    } else {
      co_await wait_notifications(ctx, w, 0, 1, 1);
      EXPECT_EQ(mine[0], 9);
      EXPECT_EQ(mine[3], 6);
    }
    co_await win_free(ctx, w);
  });
}

TEST(DcudaPut, OverlappingWindowsSkipCopy) {
  // Shared-memory ranks register overlapping windows; a put whose source and
  // target addresses coincide moves no data (§III-A) but still notifies.
  Cluster c({.machine = small_machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<double>(100);
  c.run([&](Context& ctx) -> Proc<void> {
    // Both ranks register the *same* range.
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank == 0) {
      mem[5] = 42.0;
      co_await put_notify(ctx, w, 1, 5 * sizeof(double), sizeof(double), &mem[5], 3);
    } else {
      co_await wait_notifications(ctx, w, 0, 3, 1);
      EXPECT_DOUBLE_EQ(mem[5], 42.0);
    }
    co_await win_free(ctx, w);
  });
}

TEST(DcudaHotPath, LocalPutRunsInOneFrameAndChargesInNone) {
  // Pins the frame-lean issue path (docs/PERF.md, "Coroutine frames"): put
  // returns issue_rma's Proc instead of wrapping it, and charges are plain
  // awaiters. A zero-copy, device-local, non-notified put therefore creates
  // exactly one coroutine frame, and a charge creates none.
  Cluster c({.machine = small_machine(1), .ranks_per_device = 1});
  auto mem = c.device(0).alloc<double>(8);
  std::uint64_t put_frames = ~0ull;
  std::uint64_t charge_frames = ~0ull;
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    const std::uint64_t before = sim::frame_pool_stats().served;
    co_await put(ctx, w, 0, 0, sizeof(double), &mem[0]);  // source == target
    const std::uint64_t mid = sim::frame_pool_stats().served;
    co_await ctx.charge_compute_time(micros(1));
    charge_frames = sim::frame_pool_stats().served - mid;
    put_frames = mid - before;
    co_await win_free(ctx, w);
  });
  EXPECT_EQ(put_frames, 1u);
  EXPECT_EQ(charge_frames, 0u);
}

TEST(DcudaGet, ReadsRemoteWindow) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = 1});
  auto a = c.device(0).alloc<int>(16);
  auto b = c.device(1).alloc<int>(16);
  for (int i = 0; i < 16; ++i) b[static_cast<size_t>(i)] = 1000 + i;
  std::vector<int> landing(16, 0);
  c.run([&](Context& ctx) -> Proc<void> {
    auto buf = ctx.world_rank == 0 ? a : b;
    Window w = co_await win_create(ctx, kCommWorld, buf);
    if (ctx.world_rank == 0) {
      co_await get_notify(ctx, w, 1, 4 * sizeof(int), 8 * sizeof(int), a.data(), 5);
      // get_notify signals the origin when the data arrived.
      co_await wait_notifications(ctx, w, 1, 5, 1);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(a[static_cast<size_t>(i)], 1004 + i);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  (void)landing;
}

TEST(DcudaGet, SharedMemoryGet) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<int>(8);
  for (int i = 0; i < 8; ++i) mem[static_cast<size_t>(i)] = i * 11;
  std::vector<int> out(4, 0);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank == 1) {
      co_await get_notify(ctx, w, 0, 0, 4 * sizeof(int), out.data(), 2);
      co_await wait_notifications(ctx, w, 0, 2, 1);
      EXPECT_EQ(out[3], 33);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
}

TEST(DcudaNotifications, TagFiltering) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<int>(8);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank == 0) {
      int v = 1;
      co_await put_notify(ctx, w, 1, 0, sizeof(int), &v, /*tag=*/10);
      co_await put_notify(ctx, w, 1, 0, sizeof(int), &v, /*tag=*/20);
      co_await put_notify(ctx, w, 1, 0, sizeof(int), &v, /*tag=*/10);
    } else {
      // Wait for tag 20 first: the two tag-10 notifications must be kept.
      co_await wait_notifications(ctx, w, kAnySource, 20, 1);
      co_await wait_notifications(ctx, w, kAnySource, 10, 2);
    }
    co_await win_free(ctx, w);
  });
}

TEST(DcudaNotifications, SourceFiltering) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 3});
  auto mem = c.device(0).alloc<int>(16);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank != 2) {
      int v = ctx.world_rank;
      co_await put_notify(ctx, w, 2, 0, sizeof(int), &v, 0);
    } else {
      // Match specifically rank 1 first, then rank 0.
      co_await wait_notifications(ctx, w, 1, 0, 1);
      co_await wait_notifications(ctx, w, 0, 0, 1);
    }
    co_await win_free(ctx, w);
  });
}

TEST(DcudaNotifications, WindowFiltering) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 2});
  auto m1 = c.device(0).alloc<int>(8);
  auto m2 = c.device(0).alloc<int>(8);
  c.run([&](Context& ctx) -> Proc<void> {
    Window wa = co_await win_create(ctx, kCommWorld, m1);
    Window wb = co_await win_create(ctx, kCommWorld, m2);
    if (ctx.world_rank == 0) {
      int v = 5;
      co_await put_notify(ctx, wa, 1, 0, sizeof(int), &v, 0);
      co_await put_notify(ctx, wb, 1, 0, sizeof(int), &v, 0);
    } else {
      co_await wait_notifications(ctx, wb, kAnySource, 0, 1);  // wb first
      co_await wait_notifications(ctx, wa, kAnySource, 0, 1);
    }
    co_await win_free(ctx, wb);
    co_await win_free(ctx, wa);
  });
}

TEST(DcudaNotifications, WildcardMatchesAnything) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 3});
  auto mem = c.device(0).alloc<int>(16);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank != 0) {
      int v = 1;
      co_await put_notify(ctx, w, 0, 0, sizeof(int), &v, 100 + ctx.world_rank);
    } else {
      co_await wait_notifications(ctx, kAnyWindow, kAnySource, kAnyTag, 2);
    }
    co_await win_free(ctx, w);
  });
}

TEST(DcudaNotifications, TestReturnsZeroWithoutArrivals) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<int>(8);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    const int got = co_await test_notifications(ctx, w.device_id, kAnySource, kAnyTag, 4);
    EXPECT_EQ(got, 0);
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
}

TEST(DcudaNotifications, TestConsumesAvailableMatches) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<int>(8);
  int consumed = -1;
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank == 0) {
      int v = 2;
      for (int i = 0; i < 3; ++i) co_await put_notify(ctx, w, 1, 0, sizeof(int), &v, 9);
      co_await barrier(ctx, kCommWorld);
    } else {
      co_await barrier(ctx, kCommWorld);  // all three notifications sent
      // Barrier does not guarantee notification delivery; wait for one, then
      // the other two must be testable shortly after.
      co_await wait_notifications(ctx, w, kAnySource, 9, 1);
      int total = 0;
      while (total < 2) total += co_await test_notifications(ctx, w.device_id, 0, 9, 2);
      consumed = total;
    }
    co_await win_free(ctx, w);
  });
  EXPECT_EQ(consumed, 2);
}

TEST(DcudaFlush, WaitsForAllPendingOps) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = 1});
  auto a = c.device(0).alloc<int>(1024);
  auto b = c.device(1).alloc<int>(1024);
  for (int i = 0; i < 1024; ++i) a[static_cast<size_t>(i)] = i;
  c.run([&](Context& ctx) -> Proc<void> {
    auto buf = ctx.world_rank == 0 ? a : b;
    Window w = co_await win_create(ctx, kCommWorld, buf);
    if (ctx.world_rank == 0) {
      for (int k = 0; k < 4; ++k) {
        co_await put(ctx, w, 1, static_cast<size_t>(k) * 256 * sizeof(int),
                     256 * sizeof(int), a.data() + k * 256);
      }
      co_await flush(ctx);
      // After flush, all four puts are complete: signal via notified put.
      co_await put_notify(ctx, w, 1, 0, 0, nullptr, 99);
    } else {
      co_await wait_notifications(ctx, w, 0, 99, 1);
      for (int i = 0; i < 1024; ++i) EXPECT_EQ(b[static_cast<size_t>(i)], i);
    }
    co_await win_free(ctx, w);
  });
}

TEST(DcudaBarrier, WorldBarrierSpansNodes) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = 2});
  sim::Time max_entry = 0.0;
  std::vector<sim::Time> exits;
  c.run([&](Context& ctx) -> Proc<void> {
    co_await ctx.sim().delay(micros(10.0 * ctx.world_rank));
    max_entry = std::max(max_entry, ctx.sim().now());
    co_await barrier(ctx, kCommWorld);
    exits.push_back(ctx.sim().now());
  });
  ASSERT_EQ(exits.size(), 4u);
  for (auto t : exits) EXPECT_GE(t, max_entry);
}

TEST(DcudaBarrier, DeviceBarrierIsLocal) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = 2});
  std::vector<sim::Time> exits(4, -1.0);
  c.run([&](Context& ctx) -> Proc<void> {
    // Node 1 ranks enter much later; node 0's device barrier must not wait
    // for them.
    if (ctx.node->node() == 1) co_await ctx.sim().delay(micros(500));
    co_await barrier(ctx, kCommDevice);
    exits[static_cast<size_t>(ctx.world_rank)] = ctx.sim().now();
  });
  EXPECT_LT(exits[0], micros(400));
  EXPECT_LT(exits[1], micros(400));
  EXPECT_GT(exits[2], micros(400));
}

TEST(DcudaLog, ReachesHostLog) {
  Cluster c({.machine = small_machine(1), .ranks_per_device = 2});
  c.run([&](Context& ctx) -> Proc<void> {
    co_await log(ctx, "iteration", 40 + ctx.world_rank);
  });
  const auto& lines = c.node(0).log_lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("iteration"), std::string::npos);
}

TEST(DcudaCalibration, EmptyPacketLatencies) {
  // The paper measures 7.8us (shared) and 9.2us (distributed) for an empty
  // notified put (§IV-B). The model must land in that regime.
  auto pingpong = [](int nodes, int rpd) {
    Cluster c({.machine = sim::machine_config(nodes), .ranks_per_device = rpd});
    auto m0 = c.device(0).alloc<std::byte>(64);
    auto m1 = c.device(nodes - 1).alloc<std::byte>(64);
    const int iters = 50;
    sim::Dur elapsed = c.run([&](Context& ctx) -> Proc<void> {
      auto mine = ctx.world_rank == 0 ? m0 : m1;
      const int peer = ctx.world_size - 1 - ctx.world_rank;
      Window w = co_await win_create(ctx, kCommWorld, mine);
      for (int i = 0; i < iters; ++i) {
        if (ctx.world_rank == 0) {
          co_await put_notify(ctx, w, peer, 0, 0, nullptr, 0);
          co_await wait_notifications(ctx, w, peer, 0, 1);
        } else {
          co_await wait_notifications(ctx, w, peer, 0, 1);
          co_await put_notify(ctx, w, peer, 0, 0, nullptr, 0);
        }
      }
      co_await win_free(ctx, w);
    });
    (void)elapsed;
    return c.sim().now();
  };
  // Subtract setup by running zero iterations? Simpler: time two runs with
  // different iteration counts... here we accept setup noise and check bands.
  const double shared_total = pingpong(1, 2);
  const double distributed_total = pingpong(2, 1);
  const double shared_lat = shared_total / (2.0 * 50);
  const double dist_lat = distributed_total / (2.0 * 50);
  // Generous bands around the paper's 7.8us / 9.2us.
  EXPECT_GT(shared_lat, micros(4));
  EXPECT_LT(shared_lat, micros(12));
  EXPECT_GT(dist_lat, micros(6));
  EXPECT_LT(dist_lat, micros(14));
  EXPECT_GT(dist_lat, shared_lat);
}

TEST(DcudaStencilListing, PaperExampleSemantics) {
  // The Fig. 2 program: 2D 5-point stencil, 1-rank-per-j-slab decomposition,
  // halo exchange via notified puts into neighbor windows, double buffering
  // with window swap. Validated against a serial reference.
  constexpr int jstride = 8;   // i-dimension extent
  constexpr int rows_per_rank = 4;
  constexpr int ranks = 4;     // 2 nodes x 2 ranks
  constexpr int steps = 3;
  const int total_rows = rows_per_rank * ranks;

  // Serial reference on the global grid (with zero boundary).
  auto idx = [&](int i, int j) { return j * jstride + i; };
  std::vector<double> ref_in(static_cast<size_t>(jstride * total_rows));
  for (int j = 0; j < total_rows; ++j)
    for (int i = 0; i < jstride; ++i)
      ref_in[static_cast<size_t>(idx(i, j))] = i + 0.1 * j;
  std::vector<double> ref_out(ref_in.size(), 0.0);
  auto at = [&](std::vector<double>& v, int i, int j) -> double {
    if (i < 0 || i >= jstride || j < 0 || j >= total_rows) return 0.0;
    return v[static_cast<size_t>(idx(i, j))];
  };
  for (int s = 0; s < steps; ++s) {
    for (int j = 0; j < total_rows; ++j)
      for (int i = 0; i < jstride; ++i)
        ref_out[static_cast<size_t>(idx(i, j))] =
            -4.0 * at(ref_in, i, j) + at(ref_in, i + 1, j) + at(ref_in, i - 1, j) +
            at(ref_in, i, j + 1) + at(ref_in, i, j - 1);
    std::swap(ref_in, ref_out);
  }

  Cluster c({.machine = small_machine(2), .ranks_per_device = 2});
  const size_t len = static_cast<size_t>(rows_per_rank * jstride);
  // Per rank: halo row below + domain + halo row above.
  struct RankMem {
    std::span<double> in, out;
  };
  std::vector<RankMem> mem(ranks);
  for (int r = 0; r < ranks; ++r) {
    auto& dev = c.device(r / 2);
    mem[static_cast<size_t>(r)].in = dev.alloc<double>(len + 2 * jstride);
    mem[static_cast<size_t>(r)].out = dev.alloc<double>(len + 2 * jstride);
    for (auto& x : mem[static_cast<size_t>(r)].in) x = 0.0;
    for (auto& x : mem[static_cast<size_t>(r)].out) x = 0.0;
    for (int j = 0; j < rows_per_rank; ++j)
      for (int i = 0; i < jstride; ++i)
        mem[static_cast<size_t>(r)].in[static_cast<size_t>((j + 1) * jstride + i)] =
            i + 0.1 * (r * rows_per_rank + j);
    // Boilerplate halo pre-initialization (the listing exchanges *after*
    // each compute phase, so the first iteration reads pre-filled halos).
    for (int i = 0; i < jstride; ++i) {
      const int below = r * rows_per_rank - 1;
      const int above = (r + 1) * rows_per_rank;
      mem[static_cast<size_t>(r)].in[static_cast<size_t>(i)] =
          below >= 0 ? i + 0.1 * below : 0.0;
      mem[static_cast<size_t>(r)].in[static_cast<size_t>((rows_per_rank + 1) * jstride + i)] =
          above < total_rows ? i + 0.1 * above : 0.0;
    }
  }

  c.run([&](Context& ctx) -> Proc<void> {
    const int rank = comm_rank(ctx, kCommWorld);
    const int size = comm_size(ctx, kCommWorld);
    auto in = mem[static_cast<size_t>(rank)].in;
    auto out = mem[static_cast<size_t>(rank)].out;
    Window win = co_await win_create(ctx, kCommWorld, in);
    Window wout = co_await win_create(ctx, kCommWorld, out);
    const bool lsend = rank - 1 >= 0;
    const bool rsend = rank + 1 < size;
    const int tag = 0;

    for (int s = 0; s < steps; ++s) {
      // Apply the stencil on the rank's rows (i-boundary is zero padded).
      for (int j = 1; j <= rows_per_rank; ++j) {
        for (int i = 0; i < jstride; ++i) {
          const auto get_v = [&](int ii, int jj) -> double {
            if (ii < 0 || ii >= jstride) return 0.0;
            return in[static_cast<size_t>(jj * jstride + ii)];
          };
          out[static_cast<size_t>(j * jstride + i)] =
              -4.0 * get_v(i, j) + get_v(i + 1, j) + get_v(i - 1, j) +
              get_v(i, j + 1) + get_v(i, j - 1);
        }
      }
      co_await ctx.block->compute_flops(9.0 * len);

      if (lsend) {
        co_await put_notify(ctx, wout, rank - 1,
                            (len + jstride) * sizeof(double), jstride * sizeof(double),
                            &out[jstride], tag);
      }
      if (rsend) {
        co_await put_notify(ctx, wout, rank + 1, 0, jstride * sizeof(double),
                            &out[len], tag);
      }
      co_await wait_notifications(ctx, wout, kAnySource, tag,
                                  (lsend ? 1 : 0) + (rsend ? 1 : 0));
      std::swap(in, out);
      std::swap(win, wout);
    }
    co_await win_free(ctx, win);
    co_await win_free(ctx, wout);
  });

  // Compare interior values to the serial reference.
  for (int r = 0; r < ranks; ++r) {
    // After `steps` swaps the result lives in `in` if steps is odd.
    auto result = steps % 2 == 1 ? mem[static_cast<size_t>(r)].out
                                 : mem[static_cast<size_t>(r)].in;
    // NB: swap() above swapped local spans, not the underlying storage; the
    // final data is in the span last written, which is `in` after odd swaps
    // when viewed from outside. Check both and require one to match.
    auto matches = [&](std::span<double> v) {
      for (int j = 0; j < rows_per_rank; ++j)
        for (int i = 0; i < jstride; ++i) {
          const double expect = ref_in[static_cast<size_t>(idx(i, r * rows_per_rank + j))];
          if (std::abs(v[static_cast<size_t>((j + 1) * jstride + i)] - expect) > 1e-9)
            return false;
        }
      return true;
    };
    EXPECT_TRUE(matches(mem[static_cast<size_t>(r)].in) ||
                matches(mem[static_cast<size_t>(r)].out))
        << "rank " << r;
    (void)result;
  }
}

TEST(DcudaExtensions, Put2dMovesRectangle) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = 1});
  constexpr int stride = 16;
  auto a = c.device(0).alloc<double>(stride * 8);
  auto b = c.device(1).alloc<double>(stride * 8);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < stride; ++i) {
      a[static_cast<size_t>(j * stride + i)] = j * 100.0 + i;
      b[static_cast<size_t>(j * stride + i)] = -1.0;
    }
  c.run([&](Context& ctx) -> Proc<void> {
    auto buf = ctx.world_rank == 0 ? a : b;
    Window w = co_await win_create(ctx, kCommWorld, buf);
    if (ctx.world_rank == 0) {
      // 4x4 sub-block starting at (i=2, j=1) to the same place remotely.
      const size_t origin = (1 * stride + 2) * sizeof(double);
      co_await put_2d_notify(ctx, w, 1, origin, 4 * sizeof(double), 4,
                             stride * sizeof(double), &a[1 * stride + 2],
                             stride * sizeof(double), 0);
    } else {
      co_await wait_notifications(ctx, w, 0, 0, 1);
      co_await flush(ctx);
      for (int j = 1; j < 5; ++j)
        for (int i = 2; i < 6; ++i)
          EXPECT_DOUBLE_EQ(b[static_cast<size_t>(j * stride + i)], j * 100.0 + i);
      // Outside the rectangle untouched.
      EXPECT_DOUBLE_EQ(b[0], -1.0);
      EXPECT_DOUBLE_EQ(b[static_cast<size_t>(6 * stride + 2)], -1.0);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
}

TEST(DcudaExtensions, PutNotifyAllReachesEveryLocalRank) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = 3});
  auto target_mem = c.device(1).alloc<int>(3 * 8);
  auto src_mem = c.device(0).alloc<int>(8);
  for (int i = 0; i < 8; ++i) src_mem[static_cast<size_t>(i)] = 7 * i;
  int notified = 0;
  c.run([&](Context& ctx) -> Proc<void> {
    std::span<int> mine =
        ctx.node->node() == 0
            ? std::span<int>(src_mem)
            : target_mem.subspan(static_cast<size_t>(ctx.device_rank) * 8, 8);
    Window w = co_await win_create(ctx, kCommWorld, mine);
    if (ctx.world_rank == 0) {
      co_await put_notify_all(ctx, w, /*target=*/3, 0, 8 * sizeof(int),
                              src_mem.data(), 4);
    }
    if (ctx.node->node() == 1) {
      co_await wait_notifications(ctx, w, 0, 4, 1);
      ++notified;
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  EXPECT_EQ(notified, 3);
  EXPECT_EQ(target_mem[7], 49);  // rank 3 == local rank 0 got the payload
}

TEST(DcudaExtensions, BcastNotifyDistributesRootBuffer) {
  Cluster c({.machine = small_machine(2), .ranks_per_device = 2});
  std::vector<std::span<double>> bufs;
  for (int n = 0; n < 2; ++n)
    for (int r = 0; r < 2; ++r) bufs.push_back(c.device(n).alloc<double>(32));
  for (auto& b : bufs)
    for (auto& x : b) x = 0.0;
  for (auto& x : bufs[0]) x = 3.25;  // root payload
  c.run([&](Context& ctx) -> Proc<void> {
    auto mine = bufs[static_cast<size_t>(ctx.world_rank)];
    Window w = co_await win_create(ctx, kCommWorld, mine);
    co_await bcast_notify(ctx, w, kCommWorld, /*root=*/0, 0, 32 * sizeof(double),
                          mine.data(), 77);
    EXPECT_DOUBLE_EQ(mine[31], 3.25);
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  for (auto& b : bufs) EXPECT_DOUBLE_EQ(b[0], 3.25);
}

TEST(DcudaAblation, DeviceLocalNotificationsFaster) {
  // Device-local notifications are looped through the host on the paper's
  // host-loop backend and deposited on the device by the device-initiated
  // backend; a one-device ping-pong must finish faster on the latter.
  auto pingpong_time = [](sim::RuntimeBackend backend) {
    sim::MachineConfig cfg;
    cfg.num_nodes = 1;
    cfg.backend = backend;
    Cluster c({.machine = cfg, .ranks_per_device = 2});
    auto mem = c.device(0).alloc<std::byte>(128);
    c.run([&](Context& ctx) -> Proc<void> {
      Window w = co_await win_create(ctx, kCommWorld, mem);
      for (int i = 0; i < 20; ++i) {
        if (ctx.world_rank == 0) {
          co_await put_notify(ctx, w, 1, 0, 0, nullptr, 0);
          co_await wait_notifications(ctx, w, 1, 0, 1);
        } else {
          co_await wait_notifications(ctx, w, 0, 0, 1);
          co_await put_notify(ctx, w, 0, 0, 0, nullptr, 0);
        }
      }
      co_await win_free(ctx, w);
    });
    return c.sim().now();
  };
  EXPECT_LT(pingpong_time(sim::RuntimeBackend::kDeviceInitiated),
            pingpong_time(sim::RuntimeBackend::kHostLoop));
}

}  // namespace
}  // namespace dcuda
