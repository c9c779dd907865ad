// Tests for host-runtime internals: flush-id tracking, window registries,
// queue plumbing, command ordering, mixed collectives, and host-loop vs
// device-initiated backend parity (docs/BACKENDS.md).

#include <gtest/gtest.h>

#include <cmath>

#include "apps/particles.h"
#include "apps/spmv.h"
#include "apps/stencil.h"
#include "cluster/cluster.h"
#include "sim/invariants.h"
#include "sim/units.h"

namespace dcuda {
namespace {

using sim::micros;
using sim::Proc;

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

TEST(RuntimeFlush, OutOfOrderCompletionAdvancesContiguously) {
  // Issue one small and one large put; the small one (to a near target)
  // can complete first, but the flush frontier must only advance once the
  // earlier-issued large transfer is done too.
  Cluster c({.machine = machine(3), .ranks_per_device = 1});
  auto src = c.device(0).alloc<std::byte>(512 * 1024);
  auto big = c.device(1).alloc<std::byte>(512 * 1024);
  auto small = c.device(2).alloc<std::byte>(64);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, ctx.world_rank == 0 ? src
                                   : ctx.world_rank == 1 ? big
                                                         : small);
    if (ctx.world_rank == 0) {
      // Large rendezvous transfer first (slow), tiny eager one second.
      co_await put(ctx, w, 1, 0, 512 * 1024, src.data());
      co_await put(ctx, w, 2, 0, 64, src.data());
      const auto t0 = ctx.sim().now();
      co_await flush(ctx);
      // Flush must cover the large transfer: at 6 GB/s, 512 kB needs >80us.
      EXPECT_GT(ctx.sim().now() - t0, micros(40));
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
}

TEST(RuntimeFlush, WinFlushIsWindowScoped) {
  // A window with no pending operations flushes immediately even while
  // another window still has a large transfer in flight.
  Cluster c({.machine = machine(2), .ranks_per_device = 1});
  auto big_src = c.device(0).alloc<std::byte>(1024 * 1024);
  auto big_dst = c.device(1).alloc<std::byte>(1024 * 1024);
  auto small = c.device(1).alloc<std::byte>(64);
  c.run([&](Context& ctx) -> Proc<void> {
    Window wbig = co_await win_create(ctx, kCommWorld,
                                      ctx.world_rank == 0 ? big_src : big_dst);
    Window wsmall = co_await win_create(
        ctx, kCommWorld, ctx.world_rank == 0 ? big_src.subspan(0, 64) : small);
    if (ctx.world_rank == 0) {
      co_await put(ctx, wbig, 1, 0, 1024 * 1024, big_src.data());
      const auto t0 = ctx.sim().now();
      co_await win_flush(ctx, wsmall);  // nothing pending on wsmall
      EXPECT_LT(ctx.sim().now() - t0, micros(1));
      co_await win_flush(ctx, wbig);  // must cover the 1 MB transfer
      EXPECT_GT(ctx.sim().now() - t0, micros(100));
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, wsmall);
    co_await win_free(ctx, wbig);
  });
}

TEST(RuntimeFlush, FlushWithNoPendingOpsReturnsImmediately) {
  Cluster c({.machine = machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<std::byte>(64);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    const auto t0 = ctx.sim().now();
    co_await flush(ctx);
    EXPECT_DOUBLE_EQ(ctx.sim().now(), t0);
    co_await win_free(ctx, w);
  });
}

TEST(RuntimeWindows, ManyWindowsPerRank) {
  Cluster c({.machine = machine(2), .ranks_per_device = 2});
  std::vector<std::span<double>> bufs;
  for (int n = 0; n < 2; ++n)
    for (int r = 0; r < 2; ++r) bufs.push_back(c.device(n).alloc<double>(8));
  c.run([&](Context& ctx) -> Proc<void> {
    std::vector<Window> wins;
    for (int i = 0; i < 12; ++i) {
      wins.push_back(
          co_await win_create(ctx, kCommWorld, bufs[static_cast<size_t>(ctx.world_rank)]));
      EXPECT_EQ(wins.back().device_id, i);
    }
    // Use the last window for a round trip to prove the table holds up.
    const int peer = ctx.world_rank ^ 1;
    double v = 1.5 + ctx.world_rank;
    co_await put_notify(ctx, wins.back(), peer, 0, sizeof(double), &v, 0);
    co_await wait_notifications(ctx, wins.back(), kAnySource, 0, 1);
    EXPECT_DOUBLE_EQ(bufs[static_cast<size_t>(ctx.world_rank)][0], 1.5 + peer);
    for (auto& w : wins) co_await win_free(ctx, w);
  });
}

TEST(RuntimeWindows, WindowIdsReusableAfterFree) {
  Cluster c({.machine = machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<double>(16);
  c.run([&](Context& ctx) -> Proc<void> {
    for (int round = 0; round < 3; ++round) {
      Window w = co_await win_create(ctx, kCommWorld, mem);
      const int peer = ctx.world_rank ^ 1;
      co_await put_notify(ctx, w, peer, 0, 0, nullptr, round);
      co_await wait_notifications(ctx, w, peer, round, 1);
      co_await win_free(ctx, w);
    }
  });
}

TEST(RuntimeOrdering, PutsFromOneRankArriveInOrder) {
  // Non-overtaking per (origin, target): sequence of puts to the same
  // target window region lands in issue order; the final value wins.
  Cluster c({.machine = machine(2), .ranks_per_device = 1});
  auto src = c.device(0).alloc<int>(64);
  auto dst = c.device(1).alloc<int>(64);
  c.run([&](Context& ctx) -> Proc<void> {
    auto buf = ctx.world_rank == 0 ? src : dst;
    Window w = co_await win_create(ctx, kCommWorld, buf);
    if (ctx.world_rank == 0) {
      for (int i = 1; i <= 20; ++i) {
        src[0] = i;
        co_await put(ctx, w, 1, 0, sizeof(int), &src[0]);
        co_await flush(ctx);  // pin the value before overwriting src
      }
      co_await put_notify(ctx, w, 1, 0, 0, nullptr, 1);
    } else {
      co_await wait_notifications(ctx, w, 0, 1, 1);
      EXPECT_EQ(dst[0], 20);
    }
    co_await win_free(ctx, w);
  });
}

TEST(RuntimeBarrier, MixedWorldAndDeviceBarriers) {
  Cluster c({.machine = machine(2), .ranks_per_device = 2});
  std::vector<int> phase(4, 0);
  c.run([&](Context& ctx) -> Proc<void> {
    co_await barrier(ctx, kCommDevice);
    phase[static_cast<size_t>(ctx.world_rank)] = 1;
    co_await barrier(ctx, kCommWorld);
    phase[static_cast<size_t>(ctx.world_rank)] = 2;
    co_await barrier(ctx, kCommDevice);
    co_await barrier(ctx, kCommWorld);
    phase[static_cast<size_t>(ctx.world_rank)] = 3;
  });
  for (int p : phase) EXPECT_EQ(p, 3);
}

TEST(RuntimeQueues, CommandQueueBackpressure) {
  // A rank that issues many commands back-to-back exceeds the 16-entry
  // command ring; the credit system must throttle without losing commands.
  Cluster c({.machine = machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<std::byte>(4096);
  int received = 0;
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank == 0) {
      for (int i = 0; i < 100; ++i) {
        co_await put_notify(ctx, w, 1, 0, 0, nullptr, 7);
      }
    } else {
      co_await wait_notifications(ctx, w, 0, 7, 100);
      received = 100;
    }
    co_await win_free(ctx, w);
  });
  EXPECT_EQ(received, 100);
}

TEST(RuntimeQueues, NotificationQueueOverflowThrottled) {
  // 100 notifications vs a 64-entry notification ring: the host-side
  // enqueue must block on credits until the device drains, not overwrite.
  sim::MachineConfig cfg = machine(1);
  cfg.runtime.notification_queue_entries = 8;
  Cluster c({.machine = cfg, .ranks_per_device = 2});
  auto mem = c.device(0).alloc<std::byte>(64);
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld, mem);
    if (ctx.world_rank == 0) {
      for (int i = 0; i < 50; ++i) co_await put_notify(ctx, w, 1, 0, 0, nullptr, i);
    } else {
      co_await ctx.sim().delay(micros(400));  // let the ring fill up
      for (int i = 0; i < 50; ++i) {
        co_await wait_notifications(ctx, w, 0, i, 1);  // strict order check
      }
    }
    co_await win_free(ctx, w);
  });
}

TEST(RuntimeLog, ManyRanksLogConcurrently) {
  Cluster c({.machine = machine(1), .ranks_per_device = 8});
  c.run([&](Context& ctx) -> Proc<void> {
    co_await log(ctx, "value", ctx.world_rank * 10);
  });
  EXPECT_EQ(c.node(0).log_lines().size(), 8u);
}

TEST(RuntimeConfigs, HostWakeupLatencyAffectsPutLatency) {
  auto latency = [](double wakeup_us) {
    sim::MachineConfig cfg;
    cfg.num_nodes = 1;
    cfg.runtime.host_wakeup_latency = micros(wakeup_us);
    Cluster c({.machine = cfg, .ranks_per_device = 2});
    auto mem = c.device(0).alloc<std::byte>(64);
    c.run([&](Context& ctx) -> Proc<void> {
      Window w = co_await win_create(ctx, kCommWorld, mem);
      for (int i = 0; i < 10; ++i) {
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
  EXPECT_LT(latency(0.5), latency(5.0));
}

TEST(RuntimeDeadlock, WaitForMissingNotificationIsDiagnosed) {
  Cluster c({.machine = machine(1), .ranks_per_device = 2});
  auto mem = c.device(0).alloc<std::byte>(64);
  EXPECT_THROW(c.run([&](Context& ctx) -> Proc<void> {
                 Window w = co_await win_create(ctx, kCommWorld, mem);
                 // Nobody ever sends: classic lost-notification hang.
                 co_await wait_notifications(ctx, w, kAnySource, 99, 1);
                 co_await win_free(ctx, w);
               }),
               sim::DeadlockError);
}

TEST(RuntimeDeadlock, MixedHostAndDeviceRankDeadlockIsDiagnosed) {
  // Host rank waits for a device-rank notification that is never sent while
  // the device rank blocks in the barrier: a cross-processor deadlock (§V
  // host ranks share the RMA machinery) must be detected, not hang.
  Cluster c({.machine = machine(1), .ranks_per_device = 1, .host_ranks = 1});
  auto mem = c.device(0).alloc<std::byte>(64);
  std::vector<std::byte> host_mem(64);
  try {
    c.run([&](Context& ctx) -> Proc<void> {
      std::span<std::byte> mine =
          ctx.is_host_rank() ? std::span<std::byte>(host_mem)
                             : std::span<std::byte>(mem);
      Window w = co_await win_create(ctx, kCommWorld, mine);
      if (ctx.is_host_rank()) {
        co_await wait_notifications(ctx, w, 0, 7, 1);  // never sent
      }
      co_await barrier(ctx, kCommWorld);
      co_await win_free(ctx, w);
    });
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

TEST(RuntimeDeadlock, OneBlockPastResidencyLimitIsDiagnosed) {
  // The paper requires all blocks of the kernel to be co-resident (208 on
  // the K80 at the launch configuration). One block more and a global
  // barrier can never complete: the 208 resident blocks wait for rank 208,
  // which cannot start until an SM slot frees. The engine must turn this
  // into a DeadlockError naming a stuck rank, not a silent hang.
  Cluster c({.machine = machine(1), .ranks_per_device = 209});
  try {
    c.run([&](Context& ctx) -> Proc<void> {
      co_await barrier(ctx, kCommWorld);
    });
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    // The diagnostic names at least one blocked rank process.
    EXPECT_NE(what.find("blocked"), std::string::npos) << what;
  }
}

TEST(RuntimeDeadlock, ExactResidencyLimitStillCompletes) {
  // The companion positive case: exactly 208 blocks barrier fine.
  Cluster c({.machine = machine(1), .ranks_per_device = 208});
  EXPECT_NO_THROW(c.run([&](Context& ctx) -> Proc<void> {
    co_await barrier(ctx, kCommWorld);
  }));
}

TEST(RuntimeGet, ConcurrentGetsFromManyRanks) {
  // All ranks of node 1 read disjoint slices of rank 0's window at once.
  Cluster c({.machine = machine(2), .ranks_per_device = 4});
  auto data = c.device(0).alloc<int>(64);
  for (int i = 0; i < 64; ++i) data[static_cast<size_t>(i)] = 1000 + i;
  std::vector<std::vector<int>> got(8, std::vector<int>(16, 0));
  c.run([&](Context& ctx) -> Proc<void> {
    Window w = co_await win_create(ctx, kCommWorld,
                                   ctx.world_rank == 0 ? data : data.subspan(0, 64));
    if (ctx.node->node() == 1) {
      auto& mine = got[static_cast<size_t>(ctx.world_rank)];
      const std::size_t off = static_cast<size_t>(ctx.device_rank) * 16 * sizeof(int);
      co_await get_notify(ctx, w, 0, off, 16 * sizeof(int), mine.data(), 3);
      co_await wait_notifications(ctx, w, 0, 3, 1);
      EXPECT_EQ(mine[0], 1000 + ctx.device_rank * 16);
      EXPECT_EQ(mine[15], 1000 + ctx.device_rank * 16 + 15);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
}

// -- Runtime-backend parity (docs/BACKENDS.md) -------------------------
//
// The device-initiated backend moves command dispatch to the NIC and
// notification delivery to the on-device board, but the wire protocol and
// ordering guarantees are shared with the host loop — so every application
// must reach the same final state under both backends, with all invariant
// oracles clean.

constexpr sim::RuntimeBackend kBothBackends[] = {
    sim::RuntimeBackend::kHostLoop, sim::RuntimeBackend::kDeviceInitiated};

sim::MachineConfig backend_machine(int nodes, sim::RuntimeBackend b) {
  sim::MachineConfig m = machine(nodes);
  m.backend = b;
  return m;
}

TEST(RuntimeBackendParity, StencilChecksumMatchesReference) {
  apps::stencil::Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 4;
  const double want = apps::stencil::reference_checksum(cfg, 2, 4);
  for (sim::RuntimeBackend b : kBothBackends) {
    Cluster c({.machine = backend_machine(2, b), .ranks_per_device = 4});
    sim::InvariantObserver obs;
    c.sim().set_invariant_observer(&obs);
    apps::stencil::Result res = apps::stencil::run_dcuda(c, cfg);
    EXPECT_NEAR(res.checksum, want, 1e-9) << sim::backend_name(b);
    obs.finalize();
    EXPECT_TRUE(obs.violations().empty())
        << sim::backend_name(b) << "\n" << obs.report();
  }
}

TEST(RuntimeBackendParity, ParticlesConservedUnderBothBackends) {
  apps::particles::Config cfg;
  cfg.cells_per_node = 4;
  cfg.particles_per_cell = 12;
  cfg.iterations = 10;
  cfg.dt = 0.02;
  const apps::particles::Result ref = apps::particles::reference(cfg, 2);
  for (sim::RuntimeBackend b : kBothBackends) {
    Cluster c({.machine = backend_machine(2, b), .ranks_per_device = 4});
    sim::InvariantObserver obs;
    c.sim().set_invariant_observer(&obs);
    apps::particles::Result res = apps::particles::run_dcuda(c, cfg);
    EXPECT_EQ(res.total_particles, ref.total_particles) << sim::backend_name(b);
    EXPECT_NEAR(res.checksum, ref.checksum,
                1e-9 * std::abs(ref.checksum) + 1e-9)
        << sim::backend_name(b);
    obs.finalize();
    EXPECT_TRUE(obs.violations().empty())
        << sim::backend_name(b) << "\n" << obs.report();
  }
}

TEST(RuntimeBackendParity, SpmvChecksumMatchesReference) {
  apps::spmv::Config cfg;
  cfg.n_dev = 32;
  cfg.density = 0.05;
  cfg.iterations = 2;
  const double want = apps::spmv::reference_checksum(cfg, 4);
  for (sim::RuntimeBackend b : kBothBackends) {
    Cluster c({.machine = backend_machine(4, b), .ranks_per_device = 4});
    sim::InvariantObserver obs;
    c.sim().set_invariant_observer(&obs);
    apps::spmv::Result res = apps::spmv::run_dcuda(c, cfg);
    EXPECT_NEAR(res.checksum, want, 1e-9 * std::abs(want) + 1e-9)
        << sim::backend_name(b);
    obs.finalize();
    EXPECT_TRUE(obs.violations().empty())
        << sim::backend_name(b) << "\n" << obs.report();
  }
}

TEST(RuntimeBackendParity, DeviceModeDeliversOnBoardOnly) {
  // Under kDeviceInitiated every device-rank notification must arrive via
  // the on-device board (no host round trip); under kHostLoop none may.
  for (sim::RuntimeBackend b : kBothBackends) {
    Cluster c({.machine = backend_machine(2, b), .ranks_per_device = 2});
    sim::InvariantObserver obs;
    c.sim().set_invariant_observer(&obs);
    auto mem = c.device(0).alloc<std::byte>(256);
    auto mem2 = c.device(1).alloc<std::byte>(256);
    c.run([&](Context& ctx) -> Proc<void> {
      Window w = co_await win_create(ctx, kCommWorld,
                                     ctx.node->node() == 0 ? mem : mem2);
      const int peer = (ctx.world_rank + 2) % 4;  // cross-node pairs
      co_await put_notify(ctx, w, peer, 0, 0, nullptr, /*tag=*/5);
      co_await wait_notifications(ctx, w, peer, 5, 1);
      co_await barrier(ctx, kCommWorld);
      co_await win_free(ctx, w);
    });
    obs.finalize();
    EXPECT_TRUE(obs.violations().empty()) << obs.report();
    EXPECT_GE(obs.notifications_delivered(), 4u);
    if (b == sim::RuntimeBackend::kDeviceInitiated) {
      EXPECT_EQ(obs.notifications_board_delivered(),
                obs.notifications_delivered());
    } else {
      EXPECT_EQ(obs.notifications_board_delivered(), 0u);
    }
  }
}

TEST(RuntimeBackendParity, DeviceModeCutsNotifiedPutLatency) {
  // The backend's whole point: no host_wakeup_latency sweep, cheaper
  // dispatch. A cross-node notified-put ping-pong must finish faster.
  auto elapsed = [](sim::RuntimeBackend b) {
    Cluster c({.machine = backend_machine(2, b), .ranks_per_device = 1});
    auto a = c.device(0).alloc<std::byte>(64);
    auto z = c.device(1).alloc<std::byte>(64);
    return c.run([&](Context& ctx) -> Proc<void> {
      Window w = co_await win_create(ctx, kCommWorld,
                                     ctx.world_rank == 0 ? a : z);
      for (int i = 0; i < 8; ++i) {
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
  };
  EXPECT_LT(elapsed(sim::RuntimeBackend::kDeviceInitiated),
            elapsed(sim::RuntimeBackend::kHostLoop));
}

TEST(RuntimeBackendParity, HostRanksStillWorkInDeviceMode) {
  // Host ranks run on the CPU and keep the host-loop machinery even when
  // the machine is device-initiated; mixed traffic must still match.
  sim::MachineConfig m =
      backend_machine(2, sim::RuntimeBackend::kDeviceInitiated);
  Cluster c({.machine = m, .ranks_per_device = 1, .host_ranks = 1});
  auto d0 = c.device(0).alloc<int>(16);
  auto d1 = c.device(1).alloc<int>(16);
  std::vector<std::vector<int>> host_mem(2, std::vector<int>(16, -1));
  c.run([&](Context& ctx) -> Proc<void> {
    std::span<int> mine = ctx.is_host_rank()
        ? std::span<int>(host_mem[static_cast<size_t>(ctx.node->node())])
        : (ctx.node->node() == 0 ? d0 : d1);
    Window w = co_await win_create(ctx, kCommWorld, mine);
    // Ring: every rank sends its id to the next rank, any kind to any kind.
    const int next = (ctx.world_rank + 1) % 4;
    int v = 100 + ctx.world_rank;
    co_await put_notify(ctx, w, next, 0, std::span<const int>(&v, 1), 7);
    co_await wait_notifications(ctx, w, kAnySource, 7, 1);
    EXPECT_EQ(mine[0], 100 + (ctx.world_rank + 3) % 4);
    co_await barrier(ctx, kCommWorld);
    // Same-node notified get between the device rank and the host rank: the
    // copy is local and the notification lands on the origin's own board,
    // host rank or not.
    const int partner = ctx.world_rank ^ 1;
    int got = -1;
    co_await get_notify(ctx, w, partner, 0, std::span<int>(&got, 1), 8);
    co_await wait_notifications(ctx, w, partner, 8, 1);
    EXPECT_EQ(got, 100 + (partner + 3) % 4);
    co_await win_free(ctx, w);
  });
}

}  // namespace
}  // namespace dcuda
