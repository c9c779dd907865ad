// Zero-allocation guarantee of the message path (docs/PERF.md, "Message
// path"): once warm, a notified put or get — device-local or remote — and an
// MPI eager or rendezvous (host-staged) message allocate nothing from the
// global heap, on one engine thread and on four, with the runtime's eager
// fast path off and on; the notified accesses also under the
// device-initiated backend (NIC board writes).
//
// Its own binary: it replaces the global operator new/delete with counting
// versions. A pair of ranks (or nodes) ping-pongs; after kWarm round trips
// the initiator switches counting on for kMeasured round trips, then off.
// The remote cases run once more on 128 nodes, where node ids (and so any
// per-destination process names) reach three digits.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sim/units.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dcuda {
namespace {

using sim::Proc;

constexpr int kWarm = 512;
constexpr int kMeasured = 128;
constexpr int kTag = 3;

enum class Op { kLocalPut, kRemotePut, kLocalGet, kRemoteGet, kMpiEager, kMpiStaged };

struct Case {
  Op op;
  int threads;
  bool eager_fast_path;
  bool device_backend;
  int nodes = 4;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  static const char* const kOps[] = {"LocalPut", "RemotePut", "LocalGet",
                                     "RemoteGet", "MpiEager", "MpiStaged"};
  const Case& c = info.param;
  std::string name = std::string(kOps[static_cast<int>(c.op)]) + "_" +
                     std::to_string(c.threads) + "Threads_Eager" +
                     (c.eager_fast_path ? "On" : "Off") +
                     (c.device_backend ? "_DeviceBackend" : "");
  if (c.nodes != 4) {
    name += '_';
    name += std::to_string(c.nodes);
    name += "Nodes";
  }
  return name;
}

// Counting covers round trips [kWarm, kWarm + kMeasured) of the initiator.
void count_round(int i) {
  if (i == kWarm) g_counting.store(true);
  if (i == kWarm + kMeasured) g_counting.store(false);
}

class MessagePathAllocations : public ::testing::TestWithParam<Case> {};

TEST_P(MessagePathAllocations, SteadyStateAllocatesNothing) {
  const Case& p = GetParam();
  sim::MachineConfig m;
  m.num_nodes = p.nodes;  // four or more shards: four threads all get work
  m.threads = p.threads;
  if (p.eager_fast_path) m.rma.eager_threshold = 1024;
  if (p.device_backend) m.backend = sim::RuntimeBackend::kDeviceInitiated;
  Cluster c({.machine = m, .ranks_per_device = 2});
  g_allocs.store(0);

  if (p.op == Op::kMpiEager || p.op == Op::kMpiStaged) {
    // The last two nodes ping-pong device buffers: 256 B goes eagerly and
    // GPUDirect; 64 KiB goes rendezvous, staged through host memory.
    const std::size_t bytes = p.op == Op::kMpiEager ? 256 : 64 * 1024;
    const int a = m.num_nodes - 2;
    const int b = m.num_nodes - 1;
    std::span<std::byte> buf[2] = {c.device(a).alloc<std::byte>(bytes),
                                   c.device(b).alloc<std::byte>(bytes)};
    c.run_hosts([&](int node) -> Proc<void> {
      if (node < a) co_return;
      mpi::Endpoint& ep = c.mpi(node);
      const gpu::MemRef ref = c.device(node).ref(buf[node - a]);
      for (int i = 0; i < kWarm + kMeasured + 1; ++i) {
        if (node == a) {
          count_round(i);
          co_await ep.send(b, kTag, ref);
          co_await ep.recv(b, kTag, ref);
        } else {
          co_await ep.recv(a, kTag, ref);
          co_await ep.send(a, kTag, ref);
        }
      }
    });
    const std::uint64_t rounds = kWarm + kMeasured + 1;
    EXPECT_EQ(c.mpi(b).staged_transfers(), p.op == Op::kMpiStaged ? rounds : 0u);
  } else {
    const bool local = p.op == Op::kLocalPut || p.op == Op::kLocalGet;
    const bool get = p.op == Op::kLocalGet || p.op == Op::kRemoteGet;
    // The initiator is the first rank of the second-to-last node; its peer
    // is the other rank there (local) or the first of the last node.
    const int first = 2 * (m.num_nodes - 2);
    const int peer = first + (local ? 1 : 2);
    constexpr std::size_t kBytes = 256;
    std::vector<std::span<std::byte>> mem;  // two ranks' windows per node
    for (int n = 0; n < m.num_nodes; ++n) {
      mem.push_back(c.device(n).alloc<std::byte>(2 * kBytes));
    }
    c.run([&](Context& ctx) -> Proc<void> {
      const auto node = static_cast<std::size_t>(ctx.world_rank / 2);
      std::span<std::byte> win_mem = mem[node].subspan(
          static_cast<std::size_t>(ctx.world_rank % 2) * kBytes, kBytes);
      Window w = co_await win_create(ctx, kCommWorld, win_mem);
      const int me = ctx.world_rank;
      if (me == first || me == peer) {
        std::byte* local_buf = win_mem.data();
        const int other = me == first ? peer : first;
        for (int i = 0; i < kWarm + kMeasured + 1; ++i) {
          if (me == first) count_round(i);
          if (get) {
            if (me != first) break;  // the target only serves
            co_await get_notify(ctx, w, other, 0, kBytes / 2, local_buf, kTag);
            co_await wait_notifications(ctx, w, other, kTag, 1);
          } else if (me == first) {
            co_await put_notify(ctx, w, other, 0, kBytes, local_buf, kTag);
            co_await wait_notifications(ctx, w, other, kTag, 1);
          } else {
            co_await wait_notifications(ctx, w, other, kTag, 1);
            co_await put_notify(ctx, w, other, 0, kBytes, local_buf, kTag);
          }
        }
        co_await flush(ctx);
      }
      co_await barrier(ctx, kCommWorld);
      co_await win_free(ctx, w);
    });
  }
  EXPECT_FALSE(g_counting.load());
  EXPECT_EQ(g_allocs.load(), 0u)
      << "heap allocations in " << kMeasured << " steady-state round trips";
}

std::vector<Case> all_cases() {
  std::vector<Case> v;
  for (Op op : {Op::kLocalPut, Op::kRemotePut, Op::kLocalGet, Op::kRemoteGet,
                Op::kMpiEager, Op::kMpiStaged}) {
    const bool mpi = op == Op::kMpiEager || op == Op::kMpiStaged;
    for (int threads : {1, 4}) {
      for (bool eager : {false, true}) {
        for (bool device : {false, true}) {
          if (!device || !mpi) v.push_back(Case{op, threads, eager, device});
        }
      }
    }
  }
  // Node and rank ids past 99 (longer process names) on a larger cluster.
  for (Op op : {Op::kRemotePut, Op::kRemoteGet, Op::kMpiEager,
                Op::kMpiStaged}) {
    for (bool eager : {false, true}) {
      v.push_back(Case{op, 1, eager, false, 128});
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Paths, MessagePathAllocations,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace dcuda
