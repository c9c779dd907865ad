// Unit tests for the GPU device model: occupancy, block scheduling,
// fork-join launch semantics, resource sharing, no-preemption consequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <vector>

#include "gpu/device.h"
#include "sim/simulation.h"
#include "sim/trigger.h"
#include "sim/units.h"

namespace dcuda::gpu {
namespace {

using sim::micros;
using sim::Proc;
using sim::Simulation;

sim::DeviceConfig small_cfg() {
  sim::DeviceConfig c;
  c.num_sms = 2;
  c.max_blocks_per_sm = 4;
  c.max_threads_per_sm = 2048;
  c.regs_per_sm = 65536;
  c.sm_flops = 100.0;  // 100 flops/s: easy arithmetic
  c.blocks_to_saturate_sm = 2.0;
  c.mem_bandwidth = 1000.0;  // 1000 B/s
  c.per_block_mem_bandwidth = 100.0;
  c.launch_overhead = 0.0;
  c.block_dispatch_overhead = 0.0;
  return c;
}

TEST(Occupancy, K80DefaultsGive208BlocksInFlight) {
  Simulation s;
  Device dev(s, 0, sim::DeviceConfig{});
  // Paper launch config: 208 blocks x 128 threads, 26 registers.
  LaunchConfig lc{208, 128, 26};
  EXPECT_EQ(dev.occupancy_blocks_per_sm(lc), 16);
  EXPECT_EQ(dev.max_blocks_in_flight(lc), 208);
}

TEST(Occupancy, RegisterUsageLimitsResidency) {
  Simulation s;
  Device dev(s, 0, sim::DeviceConfig{});
  // 128 threads x 64 regs = 8192 regs/block -> 65536/8192 = 8 blocks/SM.
  EXPECT_EQ(dev.occupancy_blocks_per_sm(LaunchConfig{1, 128, 64}), 8);
  // 256 threads x 128 regs -> 2 blocks/SM.
  EXPECT_EQ(dev.occupancy_blocks_per_sm(LaunchConfig{1, 256, 128}), 2);
}

TEST(Occupancy, ThreadCountLimitsResidency) {
  Simulation s;
  Device dev(s, 0, sim::DeviceConfig{});
  EXPECT_EQ(dev.occupancy_blocks_per_sm(LaunchConfig{1, 1024, 26}), 2);
  EXPECT_EQ(dev.occupancy_blocks_per_sm(LaunchConfig{1, 2048, 16}), 1);
}

TEST(Occupancy, InvalidConfigsRejected) {
  Simulation s;
  Device dev(s, 0, sim::DeviceConfig{});
  EXPECT_EQ(dev.occupancy_blocks_per_sm(LaunchConfig{1, 4096, 26}), 0);
  EXPECT_EQ(dev.occupancy_blocks_per_sm(LaunchConfig{1, 0, 26}), 0);
}

TEST(Launch, ForkJoinWaitsForAllBlocks) {
  Simulation s;
  Device dev(s, 0, small_cfg());
  int done = 0;
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{8, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      co_await b.compute_flops(50.0);
      ++done;
    });
    EXPECT_EQ(done, 8);
  };
  s.spawn(host(), "host");
  s.run();
  EXPECT_EQ(done, 8);
}

TEST(Launch, BlocksDistributedAcrossSms) {
  Simulation s;
  Device dev(s, 0, small_cfg());
  std::vector<int> sm_of_block(8, -1);
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{8, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      sm_of_block[static_cast<size_t>(b.block_id())] = b.sm_id();
      co_return;
    });
  };
  s.spawn(host(), "host");
  s.run();
  int on_sm0 = 0, on_sm1 = 0;
  for (int sm : sm_of_block) (sm == 0 ? on_sm0 : on_sm1)++;
  EXPECT_EQ(on_sm0, 4);
  EXPECT_EQ(on_sm1, 4);
}

TEST(Launch, OversubscribedGridRunsSequentialTail) {
  Simulation s;
  auto cfg = small_cfg();
  Device dev(s, 0, cfg);
  // Capacity 2 SMs x 4 = 8 resident; grid 16 -> two waves.
  // Each block: 100 flops. 4 blocks/SM at per-block cap 50 -> rate 25/s
  // each -> wave takes 4s. Two waves -> 8s.
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{16, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      co_await b.compute_flops(100.0);
    });
    EXPECT_NEAR(s.now(), 8.0, 1e-6);
  };
  s.spawn(host(), "host");
  s.run();
}

TEST(Launch, WaitingBlocksFreeComputeForOthers) {
  // The latency-hiding mechanism: a block waiting on a trigger consumes no
  // SM throughput, so a co-resident block computes at full per-block rate.
  Simulation s;
  auto cfg = small_cfg();
  cfg.num_sms = 1;
  Device dev(s, 0, cfg);
  sim::Trigger never(s);
  sim::Time computer_done = -1;
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{2, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      if (b.block_id() == 0) {
        // Waits 3s, then computes 50 flops.
        co_await b.sim().delay(3.0);
        co_await b.compute_flops(50.0);
      } else {
        co_await b.compute_flops(100.0);  // per-block cap 50 -> 2s alone
        computer_done = b.sim().now();
      }
    });
  };
  s.spawn(host(), "host");
  s.run();
  // Block 1 computes alone (block 0 sleeps): full per-block rate 50/s -> 2s.
  EXPECT_NEAR(computer_done, 2.0, 1e-6);
}

TEST(Launch, ConcurrentComputeSharesSm) {
  Simulation s;
  auto cfg = small_cfg();
  cfg.num_sms = 1;
  Device dev(s, 0, cfg);
  std::vector<sim::Time> fin(4, -1.0);
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{4, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      co_await b.compute_flops(100.0);
      fin[static_cast<size_t>(b.block_id())] = b.sim().now();
    });
  };
  s.spawn(host(), "host");
  s.run();
  // 4 blocks on one SM: rate min(50, 100/4)=25 -> 4s each.
  for (auto f : fin) EXPECT_NEAR(f, 4.0, 1e-6);
}

TEST(Launch, MemoryBandwidthSharedDeviceWide) {
  Simulation s;
  auto cfg = small_cfg();
  Device dev(s, 0, cfg);
  std::vector<sim::Time> fin(8, -1.0);
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{8, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      co_await b.mem_traffic(500.0);
      fin[static_cast<size_t>(b.block_id())] = b.sim().now();
    });
  };
  s.spawn(host(), "host");
  s.run();
  // 8 blocks stream 500 B each: per-block rate min(100, 1000/8)=100 (cap
  // binds) -> 5s each.
  for (auto f : fin) EXPECT_NEAR(f, 5.0, 1e-6);
}

TEST(Launch, SingleBlockMemoryCappedBelowAggregate) {
  Simulation s;
  Device dev(s, 0, small_cfg());
  sim::Time fin = -1;
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{1, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      co_await b.mem_traffic(1000.0);
      fin = b.sim().now();
    });
  };
  s.spawn(host(), "host");
  s.run();
  EXPECT_NEAR(fin, 10.0, 1e-6);  // capped at 100 B/s, not 1000 B/s
}

TEST(Launch, LaunchOverheadCharged) {
  Simulation s;
  auto cfg = small_cfg();
  cfg.launch_overhead = micros(6);
  Device dev(s, 0, cfg);
  sim::Time start = -1;
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{1, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      start = b.sim().now();
      co_return;
    });
  };
  s.spawn(host(), "host");
  s.run();
  EXPECT_NEAR(start, micros(6), sim::nanos(1));
}

TEST(Launch, GridBeyondInFlightCannotSynchronize) {
  // The §II-B hazard: more blocks than fit in flight, where resident blocks
  // wait for a non-resident one -> deadlock, reported by the simulator.
  Simulation s;
  auto cfg = small_cfg();  // capacity 8
  Device dev(s, 0, cfg);
  sim::Trigger last_block_arrived(s);
  bool arrived = false;
  auto host = [&]() -> Proc<void> {
    co_await dev.launch(LaunchConfig{9, 128, 26}, [&](BlockCtx& b) -> Proc<void> {
      if (b.block_id() == 8) {
        arrived = true;
        last_block_arrived.notify_all();
      } else {
        // Resident blocks wait for block 8, which never gets a slot.
        co_await sim::wait_until(last_block_arrived, [&] { return arrived; });
      }
    });
  };
  s.spawn(host(), "host");
  EXPECT_THROW(s.run(), sim::DeadlockError);
}

TEST(Memory, AllocReturnsZeroableRealMemory) {
  Simulation s;
  Device dev(s, 0, small_cfg());
  auto span = dev.alloc<double>(1000);
  ASSERT_EQ(span.size(), 1000u);
  // Zero-filled: apps rely on this instead of clearing their arrays.
  for (auto x : span) ASSERT_EQ(x, 0.0);
  auto bytes = dev.alloc<std::byte>(77);
  for (auto b : bytes) ASSERT_EQ(b, std::byte{0});
  for (auto& x : span) x = 1.5;
  double sum = 0;
  for (auto x : span) sum += x;
  EXPECT_DOUBLE_EQ(sum, 1500.0);
  MemRef r = dev.ref(span);
  EXPECT_TRUE(r.on_device());
  EXPECT_EQ(r.device, 0);
  EXPECT_EQ(r.bytes, 8000u);
}

TEST(Memory, AllocZeroesLargeAndRecycledBlocks) {
  // The zero contract must hold both for a block large enough to come from
  // fresh pages (4 MiB, above glibc's mmap threshold) and for a small one
  // carved from heap memory a previous device dirtied and released.
  constexpr std::size_t kLarge = std::size_t{4} << 20, kSmall = 64;
  auto all_zero = [](std::span<const std::byte> s) {
    for (auto b : s)
      if (b != std::byte{0}) return false;
    return true;
  };
  Simulation s;
  {
    Device dev(s, 0, small_cfg());
    auto large = dev.alloc<std::byte>(kLarge);
    auto small = dev.alloc<std::byte>(kSmall);
    std::fill(large.begin(), large.end(), std::byte{0xA5});
    std::fill(small.begin(), small.end(), std::byte{0x5A});
  }
  Device dev(s, 0, small_cfg());
  auto large = dev.alloc<std::byte>(kLarge);
  auto small = dev.alloc<std::byte>(kSmall);
  ASSERT_EQ(large.size(), kLarge);
  ASSERT_EQ(small.size(), kSmall);
  EXPECT_TRUE(all_zero(large));
  EXPECT_TRUE(all_zero(small));
}

TEST(Memory, AllocCountsBytesAndRejectsOverflowingSizes) {
  Simulation s;
  Device dev(s, 0, small_cfg());
  EXPECT_EQ(dev.bytes_allocated(), 0u);
  dev.alloc<double>(100);
  dev.alloc<std::byte>(7);
  EXPECT_EQ(dev.bytes_allocated(), 807u);
  // 2^61 doubles are 2^64 bytes: the size wraps to a few bytes unless it is
  // checked, and the caller would then write far past the block.
  EXPECT_THROW(dev.alloc<double>(std::size_t{1} << 61), std::bad_alloc);
  EXPECT_THROW(dev.alloc<std::byte>(SIZE_MAX), std::bad_alloc);
  EXPECT_EQ(dev.bytes_allocated(), 807u);
}

TEST(Memory, DmaCopyMovesBytesDeviceLocal) {
  Simulation s;
  Device dev(s, 0, small_cfg());
  auto a = dev.alloc<int>(16);
  auto b = dev.alloc<int>(16);
  for (int i = 0; i < 16; ++i) a[static_cast<size_t>(i)] = i * i;
  auto host = [&]() -> Proc<void> {
    co_await dev.dma_copy(dev.ref(b), dev.ref(a));
  };
  s.spawn(host(), "host");
  s.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(b[static_cast<size_t>(i)], i * i);
}

TEST(Memory, DmaCopyHostDeviceUsesPcie) {
  Simulation s;
  sim::PcieConfig pc;
  pc.bandwidth = 1000.0;
  pc.dma_startup = 1.0;
  pc.txn_latency = 0.0;
  pcie::PcieLink link(s, pc);
  Device dev(s, 0, small_cfg(), &link);
  std::vector<int> host_buf(4, 7);
  auto d = dev.alloc<int>(4);
  auto host = [&]() -> Proc<void> {
    co_await dev.dma_copy(dev.ref(d), mem_ref(std::span<int>(host_buf)));
  };
  s.spawn(host(), "host");
  s.run();
  EXPECT_EQ(d[0], 7);
  EXPECT_NEAR(s.now(), 1.0 + 16.0 / 1000.0, 1e-9);
  EXPECT_EQ(link.transactions(pcie::Dir::kHostToDevice), 1u);
}

TEST(Launch, SequentialLaunchesReuseDevice) {
  Simulation s;
  Device dev(s, 0, small_cfg());
  int total = 0;
  auto host = [&]() -> Proc<void> {
    for (int it = 0; it < 3; ++it) {
      co_await dev.launch(LaunchConfig{8, 128, 26},
                          [&](BlockCtx&) -> Proc<void> {
                            ++total;
                            co_return;
                          });
    }
  };
  s.spawn(host(), "host");
  s.run();
  EXPECT_EQ(total, 24);
  EXPECT_EQ(dev.resident_blocks(), 0);
}

}  // namespace
}  // namespace dcuda::gpu
