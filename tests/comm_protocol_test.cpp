// Notified-put protocol tests (§III, Fig. 5: meta record + payload, then
// the target's notification) across perturbation seeds and both runtime
// backends. For every run they assert:
//   * byte-for-byte payload delivery (every put lands exactly its bytes at
//     exactly its offset),
//   * FIFO order of same-sized notified puts (overwrite stamping: after the
//     target matched tag k, the contended slot must hold round >= k),
//   * no notification overtakes an earlier, larger payload of the same
//     connection within MPI's eager limit (§III-B),
//   * the invariant oracles stay clean (notified-put non-overtaking,
//     data-before-notification, queue credits),
//   * identical results on a rerun and across backends.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sim/invariants.h"

namespace dcuda {
namespace {

using sim::InvariantObserver;
using sim::Proc;

// -- Cross-node exchange workload --------------------------------------

struct ExchangeConfig {
  std::uint64_t perturb_seed = 0;
  int rounds = 8;
  int elems = 24;  // 192 B per put
  sim::RuntimeBackend backend = sim::RuntimeBackend::kHostLoop;
};

struct ExchangeResult {
  double elapsed = 0.0;
  std::vector<std::vector<double>> recv;  // per world rank: window snapshot
  std::vector<int> min_stamp_violations;  // per rank: FIFO stamp failures
  std::uint64_t fabric_msgs = 0;
  std::string oracle_errors;
};

double value_of(int origin, int round, int e) {
  return origin * 10000.0 + round * 100.0 + e;
}

// Every rank streams `rounds` same-sized notified puts to its peer on the
// other node: one into a per-round slot (byte-for-byte check) and one into a
// single contended slot stamped with the round (FIFO check), then one 4 kB
// put (size mixing).
ExchangeResult run_exchange(const ExchangeConfig& xc) {
  ExchangeResult res;
  const int nodes = 2, rpd = 2;
  const int world = nodes * rpd;
  const int rounds = xc.rounds, elems = xc.elems;
  const int big_elems = 512;  // 4 kB
  sim::MachineConfig m;
  m.num_nodes = nodes;
  m.perturb_seed = xc.perturb_seed;
  m.backend = xc.backend;
  Cluster c({.machine = m, .ranks_per_device = rpd});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);

  // Window layout (elements): [rounds * elems | elems (contended) | big].
  const std::size_t contended_off = static_cast<size_t>(rounds) * elems;
  const std::size_t big_off = contended_off + static_cast<size_t>(elems);
  const std::size_t win_elems = big_off + static_cast<size_t>(big_elems);
  std::vector<std::span<double>> recv(static_cast<size_t>(world));
  std::vector<std::span<double>> send(static_cast<size_t>(world));
  for (int g = 0; g < world; ++g) {
    gpu::Device& d = c.device(g / rpd);
    recv[static_cast<size_t>(g)] = d.alloc<double>(win_elems);
    send[static_cast<size_t>(g)] = d.alloc<double>(win_elems +
        static_cast<size_t>(rounds) * elems);
    for (double& x : recv[static_cast<size_t>(g)]) x = -1.0;
  }
  res.min_stamp_violations.assign(static_cast<size_t>(world), 0);

  res.elapsed = c.run([&](Context& ctx) -> Proc<void> {
    const int g = ctx.world_rank;
    const int peer = (g + rpd) % world;  // same local rank, other node
    Window w = co_await win_create(ctx, kCommWorld, recv[static_cast<size_t>(g)]);
    std::span<double> sbuf = send[static_cast<size_t>(g)];
    for (int k = 0; k < rounds; ++k) {
      // Disjoint-slot put (tag k) ...
      std::span<double> chunk =
          sbuf.subspan(static_cast<size_t>(k) * elems, static_cast<size_t>(elems));
      for (int e = 0; e < elems; ++e) chunk[static_cast<size_t>(e)] = value_of(g, k, e);
      co_await put_notify(ctx, w, peer, static_cast<size_t>(k) * elems,
                          std::span<const double>(chunk), /*tag=*/k);
      // ... and a contended-slot put stamped with the round (tag 1000 + k).
      std::span<double> stamp = sbuf.subspan(
          static_cast<size_t>(rounds) * elems + static_cast<size_t>(k) * elems,
          static_cast<size_t>(elems));
      for (int e = 0; e < elems; ++e) stamp[static_cast<size_t>(e)] = k;
      co_await put_notify(ctx, w, peer, contended_off,
                          std::span<const double>(stamp), /*tag=*/1000 + k);
    }
    std::span<double> big = sbuf.subspan(0, big_elems);  // reuse, post-flush read
    co_await flush(ctx);
    for (int e = 0; e < big_elems; ++e) big[static_cast<size_t>(e)] = value_of(g, 77, e);
    co_await put_notify(ctx, w, peer, big_off, std::span<const double>(big),
                        /*tag=*/2000);
    co_await flush(ctx);
    // FIFO check: match the contended tags in issue order; after tag k the
    // slot must hold round >= k (a smaller stamp means an earlier put's
    // payload overtook a later notification).
    for (int k = 0; k < rounds; ++k) {
      co_await wait_notifications(ctx, w, peer, 1000 + k, 1);
      const double stamp = recv[static_cast<size_t>(g)][contended_off];
      if (stamp < static_cast<double>(k)) {
        ++res.min_stamp_violations[static_cast<size_t>(g)];
      }
    }
    co_await wait_notifications(ctx, w, peer, kAnyTag, rounds + 1);
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });

  for (int g = 0; g < world; ++g) {
    res.recv.emplace_back(recv[static_cast<size_t>(g)].begin(),
                          recv[static_cast<size_t>(g)].end());
  }
  for (int n = 0; n < nodes; ++n) res.fabric_msgs += c.fabric().messages_sent(n);
  obs.finalize();
  for (const std::string& v : obs.violations()) {
    res.oracle_errors += "  oracle: " + v + "\n";
  }
  return res;
}

void check_payloads(const ExchangeConfig& xc, const ExchangeResult& r,
                    const std::string& what) {
  const int rpd = 2, world = 4;
  for (int g = 0; g < world; ++g) {
    const int origin = (g + rpd) % world;
    const std::vector<double>& buf = r.recv[static_cast<size_t>(g)];
    for (int k = 0; k < xc.rounds; ++k) {
      for (int e = 0; e < xc.elems; ++e) {
        ASSERT_EQ(buf[static_cast<size_t>(k) * xc.elems + static_cast<size_t>(e)],
                  value_of(origin, k, e))
            << what << ": rank " << g << " round " << k << " elem " << e;
      }
    }
    const std::size_t big_off =
        static_cast<size_t>(xc.rounds) * xc.elems + static_cast<size_t>(xc.elems);
    for (int e = 0; e < 512; ++e) {
      ASSERT_EQ(buf[big_off + static_cast<size_t>(e)], value_of(origin, 77, e))
          << what << ": rank " << g << " 4 kB put elem " << e;
    }
    EXPECT_EQ(r.min_stamp_violations[static_cast<size_t>(g)], 0)
        << what << ": rank " << g << " saw a notification overtake its payload";
  }
  EXPECT_TRUE(r.oracle_errors.empty()) << what << "\n" << r.oracle_errors;
}

// -- Seed sweep ---------------------------------------------------------

TEST(CommProtocol, SeedSweepDeliversEveryByteInOrder) {
  for (std::uint64_t seed : {0ull, 0x71001ull, 0x71002ull}) {
    ExchangeConfig xc;
    xc.perturb_seed = seed;
    check_payloads(xc, run_exchange(xc), "seed=" + std::to_string(seed));
  }
}

// -- Mixed-size interleaving -------------------------------------------
//
// Every round sends a 2 kB notified put immediately followed by a 192 B
// notified put. The receiver matches the small tag and verifies the big
// payload of the same round already landed — §III-B's guarantee is
// per-connection, so the small put's notification may not overtake the
// larger transfer. (Transfers above MPI's eager limit go RTS-CTS and
// promise completion order only, like MPI, so the rounds stay below it.)

struct MixedConfig {
  std::uint64_t perturb_seed = 0;
  int rounds = 6;
};

struct MixedResult {
  std::vector<std::vector<double>> recv;
  int late_data = 0;  // big payload missing when the small tag matched
  std::string oracle_errors;
};

MixedResult run_mixed_exchange(const MixedConfig& xc) {
  MixedResult res;
  const int nodes = 2, rpd = 2;
  const int world = nodes * rpd;
  const int rounds = xc.rounds;
  constexpr int kSmall = 24;  // 192 B
  constexpr int kBig = 256;   // 2 kB
  sim::MachineConfig m;
  m.num_nodes = nodes;
  m.perturb_seed = xc.perturb_seed;
  Cluster c({.machine = m, .ranks_per_device = rpd});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);

  const std::size_t big_base = static_cast<size_t>(rounds) * kSmall;
  auto big_off = [&](int k) {
    return big_base + static_cast<size_t>(k) * kBig;
  };
  const std::size_t win_elems = big_off(rounds);
  std::vector<std::span<double>> recv(static_cast<size_t>(world));
  std::vector<std::span<double>> send(static_cast<size_t>(world));
  for (int g = 0; g < world; ++g) {
    gpu::Device& d = c.device(g / rpd);
    recv[static_cast<size_t>(g)] = d.alloc<double>(win_elems);
    send[static_cast<size_t>(g)] = d.alloc<double>(win_elems);
    for (double& x : recv[static_cast<size_t>(g)]) x = -1.0;
  }

  c.run([&](Context& ctx) -> Proc<void> {
    const int g = ctx.world_rank;
    const int peer = (g + rpd) % world;  // symmetric across two nodes
    Window w = co_await win_create(ctx, kCommWorld, recv[static_cast<size_t>(g)]);
    std::span<double> sbuf = send[static_cast<size_t>(g)];
    const std::span<double> rbuf = recv[static_cast<size_t>(g)];
    for (int k = 0; k < rounds; ++k) {
      std::span<double> big = sbuf.subspan(big_off(k), kBig);
      for (int e = 0; e < kBig; ++e) big[static_cast<size_t>(e)] = value_of(g, 100 + k, e);
      std::span<double> small =
          sbuf.subspan(static_cast<size_t>(k) * kSmall, kSmall);
      for (int e = 0; e < kSmall; ++e) small[static_cast<size_t>(e)] = value_of(g, k, e);
      co_await put_notify(ctx, w, peer, big_off(k),
                          std::span<const double>(big), /*tag=*/100 + k);
      co_await put_notify(ctx, w, peer, static_cast<size_t>(k) * kSmall,
                          std::span<const double>(small), /*tag=*/k);
      // The small notification implies the whole round landed.
      co_await wait_notifications(ctx, w, peer, /*tag=*/k, 1);
      for (int e = 0; e < kBig; ++e) {
        if (rbuf[big_off(k) + static_cast<size_t>(e)] != value_of(peer, 100 + k, e)) {
          ++res.late_data;
          break;
        }
      }
    }
    co_await flush(ctx);
    co_await wait_notifications(ctx, w, peer, kAnyTag, rounds);  // big tags
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });

  for (int g = 0; g < world; ++g) {
    res.recv.emplace_back(recv[static_cast<size_t>(g)].begin(),
                          recv[static_cast<size_t>(g)].end());
  }
  obs.finalize();
  for (const std::string& v : obs.violations()) {
    res.oracle_errors += "  oracle: " + v + "\n";
  }
  return res;
}

TEST(CommProtocol, MixedSizeInterleavedSweep) {
  for (std::uint64_t seed : {0ull, 0x73001ull, 0x73002ull}) {
    MixedConfig xc;
    xc.perturb_seed = seed;
    const MixedResult r = run_mixed_exchange(xc);
    EXPECT_EQ(r.late_data, 0)
        << "seed=" << seed << ": notification overtook earlier data";
    EXPECT_TRUE(r.oracle_errors.empty()) << "seed=" << seed << "\n"
                                         << r.oracle_errors;
  }
}

TEST(CommProtocol, MixedSizeIsDeterministic) {
  const MixedResult a = run_mixed_exchange({});
  const MixedResult b = run_mixed_exchange({});
  ASSERT_EQ(a.recv, b.recv);
  EXPECT_EQ(a.late_data, 0);
  EXPECT_EQ(b.late_data, 0);
}

TEST(CommProtocol, ExchangeIsDeterministic) {
  for (std::uint64_t seed : {0ull, 0x72001ull}) {
    ExchangeConfig xc;
    xc.perturb_seed = seed;
    const ExchangeResult a = run_exchange(xc);
    const ExchangeResult b = run_exchange(xc);
    EXPECT_EQ(a.elapsed, b.elapsed) << "seed " << seed;
    ASSERT_EQ(a.recv, b.recv) << "seed " << seed;
    EXPECT_TRUE(a.oracle_errors.empty()) << a.oracle_errors;
  }
}

// -- Runtime-backend dimension (docs/BACKENDS.md) ----------------------
//
// The device-initiated backend replaces the host event loop with NIC
// dispatch and on-device notification boards but shares the fabric, so the
// exchange workload's byte-for-byte payload, FIFO-stamp, and oracle checks
// must hold unchanged.

TEST(CommProtocol, DeviceBackendDeliversEveryByteInOrder) {
  for (std::uint64_t seed : {0ull, 0x73001ull, 0x73002ull}) {
    ExchangeConfig xc;
    xc.backend = sim::RuntimeBackend::kDeviceInitiated;
    xc.perturb_seed = seed;
    check_payloads(xc, run_exchange(xc),
                   "device backend seed=" + std::to_string(seed));
  }
}

TEST(CommProtocol, BackendsProduceIdenticalPayloads) {
  ExchangeConfig host;
  ExchangeConfig dev = host;
  dev.backend = sim::RuntimeBackend::kDeviceInitiated;
  const ExchangeResult a = run_exchange(host);
  const ExchangeResult b = run_exchange(dev);
  ASSERT_EQ(a.recv, b.recv);
  EXPECT_TRUE(a.oracle_errors.empty()) << a.oracle_errors;
  EXPECT_TRUE(b.oracle_errors.empty()) << b.oracle_errors;
  // Same wire protocol underneath: the backend moves dispatch off the
  // host but does not change what crosses the fabric.
  EXPECT_EQ(a.fabric_msgs, b.fabric_msgs);
}

TEST(CommProtocol, DeviceBackendIsDeterministic) {
  ExchangeConfig xc;
  xc.backend = sim::RuntimeBackend::kDeviceInitiated;
  const ExchangeResult a = run_exchange(xc);
  const ExchangeResult b = run_exchange(xc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.recv, b.recv);
}

}  // namespace
}  // namespace dcuda
