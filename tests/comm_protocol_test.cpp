// Communication-protocol tests for the eager/aggregated small-put fast path
// (sim::RmaConfig; docs/PERF.md "Communication protocol").
//
// The sweep crosses eager threshold × batch geometry × perturbation seeds
// and asserts, for every combination:
//   * byte-for-byte payload delivery (every put lands exactly its bytes at
//     exactly its offset),
//   * FIFO order of same-sized notified puts (overwrite stamping: after the
//     target matched tag k, the contended slot must hold round >= k),
//   * the invariant oracles stay clean (eager-batch FIFO + conservation,
//     notified-put non-overtaking, queue credits),
//   * results identical with the fast path on and off.
// Plus unit coverage of CircularQueue::enqueue_batch (the batched
// notification commit) and of the aggregation counters.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <sstream>
#include <vector>

#include "cluster/cluster.h"
#include "queue/circular_queue.h"
#include "sim/invariants.h"

namespace dcuda {
namespace {

using sim::InvariantObserver;
using sim::Proc;

// -- Cross-node exchange workload --------------------------------------

struct ExchangeConfig {
  std::size_t eager_threshold = 0;  // 0 = fast path off
  int max_batch = 8;
  std::size_t max_batch_bytes = 16 * 1024;
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
// single contended slot stamped with the round (FIFO check), then one
// rendezvous-sized put above any threshold in the sweep (path mixing).
ExchangeResult run_exchange(const ExchangeConfig& xc) {
  ExchangeResult res;
  const int nodes = 2, rpd = 2;
  const int world = nodes * rpd;
  const int rounds = xc.rounds, elems = xc.elems;
  const int big_elems = 512;  // 4 kB
  sim::MachineConfig m;
  m.num_nodes = nodes;
  m.perturb_seed = xc.perturb_seed;
  m.rma.eager_threshold = xc.eager_threshold;
  m.rma.max_batch = xc.max_batch;
  m.rma.max_batch_bytes = xc.max_batch_bytes;
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
          << what << ": rank " << g << " rendezvous elem " << e;
    }
    EXPECT_EQ(r.min_stamp_violations[static_cast<size_t>(g)], 0)
        << what << ": rank " << g << " saw a notification overtake its payload";
  }
  EXPECT_TRUE(r.oracle_errors.empty()) << what << "\n" << r.oracle_errors;
}

// -- The sweep: threshold × batch × seeds ------------------------------

TEST(CommProtocol, EagerSweepDeliversEveryByteInOrder) {
  for (std::size_t threshold : {std::size_t{0}, std::size_t{192}, std::size_t{512}}) {
    for (int max_batch : {1, 3, 8}) {
      for (std::uint64_t seed : {0ull, 0x71001ull, 0x71002ull}) {
        ExchangeConfig xc;
        xc.eager_threshold = threshold;
        xc.max_batch = max_batch;
        xc.perturb_seed = seed;
        std::ostringstream what;
        what << "threshold=" << threshold << " max_batch=" << max_batch
             << " seed=" << seed;
        check_payloads(xc, run_exchange(xc), what.str());
      }
    }
  }
}

TEST(CommProtocol, SmallByteCapStillDeliversEverything) {
  ExchangeConfig xc;
  xc.eager_threshold = 512;
  xc.max_batch = 64;
  xc.max_batch_bytes = 256;  // byte cap, not record cap, drives the flushes
  check_payloads(xc, run_exchange(xc), "byte-capped");
}

// -- Mixed-size interleaving across the protocol boundary --------------
//
// Every round straddles the threshold: a big notified put (rendezvous path
// when the fast path is on) immediately followed by a small notified put
// (eager path). The receiver matches the small tag and verifies the big
// payload of the same round already landed — §III-B's guarantee is
// per-connection, not per-path, so neither the notification nor the
// aggregated small payload may overtake the rendezvous transfer.

struct MixedConfig {
  std::size_t eager_threshold = 0;  // 0 = fast path off
  bool huge_rounds = false;  // odd rounds use 12 kB (> MPI eager limit)
  int max_batch = 8;
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
  constexpr int kSmall = 24;    // 192 B — eager at every enabled threshold
  constexpr int kBigMax = 1536; // 12 kB slot pitch
  sim::MachineConfig m;
  m.num_nodes = nodes;
  m.perturb_seed = xc.perturb_seed;
  m.rma.eager_threshold = xc.eager_threshold;
  m.rma.max_batch = xc.max_batch;
  Cluster c({.machine = m, .ranks_per_device = rpd});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);

  auto big_elems = [&](int k) {
    return xc.huge_rounds && k % 2 == 1 ? kBigMax : 256;  // 12 kB / 2 kB
  };
  const std::size_t big_base = static_cast<size_t>(rounds) * kSmall;
  auto big_off = [&](int k) {
    return big_base + static_cast<size_t>(k) * kBigMax;
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
      const int bn = big_elems(k);
      std::span<double> big = sbuf.subspan(big_off(k), static_cast<size_t>(bn));
      for (int e = 0; e < bn; ++e) big[static_cast<size_t>(e)] = value_of(g, 100 + k, e);
      std::span<double> small =
          sbuf.subspan(static_cast<size_t>(k) * kSmall, kSmall);
      for (int e = 0; e < kSmall; ++e) small[static_cast<size_t>(e)] = value_of(g, k, e);
      co_await put_notify(ctx, w, peer, big_off(k),
                          std::span<const double>(big), /*tag=*/100 + k);
      co_await put_notify(ctx, w, peer, static_cast<size_t>(k) * kSmall,
                          std::span<const double>(small), /*tag=*/k);
      // The small notification implies the whole round landed.
      co_await wait_notifications(ctx, w, peer, /*tag=*/k, 1);
      for (int e = 0; e < bn; ++e) {
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
  // huge_rounds only with the fast path on: with it off, transfers above
  // the MPI eager limit promise completion order only (true rendezvous).
  struct Case { std::size_t threshold; bool huge; };
  constexpr Case kCases[] = {
      {0, false}, {192, false}, {192, true}, {512, false}, {512, true}};
  for (const Case& cs : kCases) {
    for (std::uint64_t seed : {0ull, 0x73001ull, 0x73002ull}) {
      MixedConfig xc;
      xc.eager_threshold = cs.threshold;
      xc.huge_rounds = cs.huge;
      xc.perturb_seed = seed;
      const MixedResult r = run_mixed_exchange(xc);
      std::ostringstream what;
      what << "threshold=" << cs.threshold << " huge=" << cs.huge
           << " seed=" << seed;
      EXPECT_EQ(r.late_data, 0)
          << what.str() << ": notification overtook rendezvous data";
      EXPECT_TRUE(r.oracle_errors.empty()) << what.str() << "\n"
                                           << r.oracle_errors;
    }
  }
}

TEST(CommProtocol, MixedSizeOnOffProduceIdenticalResults) {
  MixedConfig off;
  MixedConfig on = off;
  on.eager_threshold = 256;
  on.max_batch = 4;
  const MixedResult a = run_mixed_exchange(off);
  const MixedResult b = run_mixed_exchange(on);
  ASSERT_EQ(a.recv, b.recv);
  EXPECT_EQ(a.late_data, 0);
  EXPECT_EQ(b.late_data, 0);
}

// -- On/off equivalence ------------------------------------------------

TEST(CommProtocol, AggregationOnOffProduceIdenticalResults) {
  for (std::uint64_t seed : {0ull, 0x72001ull}) {
    ExchangeConfig off;
    off.perturb_seed = seed;
    ExchangeConfig on = off;
    on.eager_threshold = 256;
    on.max_batch = 4;
    const ExchangeResult a = run_exchange(off);
    const ExchangeResult b = run_exchange(on);
    ASSERT_EQ(a.recv, b.recv) << "seed " << seed;
    EXPECT_TRUE(a.oracle_errors.empty()) << a.oracle_errors;
    EXPECT_TRUE(b.oracle_errors.empty()) << b.oracle_errors;
  }
}

TEST(CommProtocol, AggregationReducesFabricMessages) {
  ExchangeConfig off;
  ExchangeConfig on = off;
  on.eager_threshold = 256;
  on.max_batch = 8;
  const ExchangeResult a = run_exchange(off);
  const ExchangeResult b = run_exchange(on);
  // Reference path: meta + payload per put. Eager path: one packet per
  // batch. The rendezvous-sized put and MPI control traffic are common.
  EXPECT_LT(b.fabric_msgs, a.fabric_msgs);
}

TEST(CommProtocol, DisabledPathIsDeterministic) {
  ExchangeConfig xc;
  const ExchangeResult a = run_exchange(xc);
  const ExchangeResult b = run_exchange(xc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.recv, b.recv);
}

TEST(CommProtocol, EnabledPathIsDeterministic) {
  ExchangeConfig xc;
  xc.eager_threshold = 384;
  xc.max_batch = 5;
  const ExchangeResult a = run_exchange(xc);
  const ExchangeResult b = run_exchange(xc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.recv, b.recv);
}

// -- Runtime-backend dimension (docs/BACKENDS.md) ----------------------
//
// The device-initiated backend replaces the host event loop with NIC
// dispatch and on-device notification boards but shares the fabric
// channels, so the exchange workload's byte-for-byte payload, FIFO-stamp,
// and oracle checks must hold unchanged — with and without the eager
// aggregation fast path on top.

TEST(CommProtocol, DeviceBackendDeliversEveryByteInOrder) {
  for (std::size_t threshold : {std::size_t{0}, std::size_t{256}}) {
    for (std::uint64_t seed : {0ull, 0x73001ull, 0x73002ull}) {
      ExchangeConfig xc;
      xc.backend = sim::RuntimeBackend::kDeviceInitiated;
      xc.eager_threshold = threshold;
      xc.perturb_seed = seed;
      std::ostringstream what;
      what << "device backend threshold=" << threshold << " seed=" << seed;
      check_payloads(xc, run_exchange(xc), what.str());
    }
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
  xc.eager_threshold = 384;
  xc.max_batch = 5;
  const ExchangeResult a = run_exchange(xc);
  const ExchangeResult b = run_exchange(xc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.recv, b.recv);
}

// -- enqueue_batch unit coverage ---------------------------------------

struct Entry {
  int v = 0;
};

TEST(EnqueueBatch, SingleCommitDeliversAllEntriesInOrder) {
  sim::Simulation s;
  queue::CircularQueue<Entry> q(s, 16, queue::local_transport(s));
  std::vector<int> got;
  auto producer = [&]() -> Proc<void> {
    std::vector<Entry> es;
    for (int i = 0; i < 10; ++i) es.push_back(Entry{i});
    co_await q.enqueue_batch(std::move(es));
  };
  auto consumer = [&]() -> Proc<void> {
    for (int i = 0; i < 10; ++i) got.push_back((co_await q.dequeue()).v);
  };
  s.spawn(producer(), "p");
  s.spawn(consumer(), "c");
  s.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
  EXPECT_EQ(q.enqueues(), 10u);
}

TEST(EnqueueBatch, BatchLargerThanCapacityChunksAndCompletes) {
  sim::Simulation s;
  queue::CircularQueue<Entry> q(s, 4, queue::local_transport(s));
  InvariantObserver obs;
  s.set_invariant_observer(&obs);
  std::vector<int> got;
  const int n = 50;
  auto producer = [&]() -> Proc<void> {
    std::vector<Entry> es;
    for (int i = 0; i < n; ++i) es.push_back(Entry{i});
    co_await q.enqueue_batch(std::move(es));
  };
  auto consumer = [&]() -> Proc<void> {
    for (int i = 0; i < n; ++i) {
      got.push_back((co_await q.dequeue()).v);
      co_await s.delay(sim::micros(0.3));  // slow consumer forces wraps
    }
  };
  s.spawn(producer(), "p");
  s.spawn(consumer(), "c");
  s.run();
  ASSERT_EQ(got.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
  obs.finalize();
  EXPECT_TRUE(obs.ok()) << obs.report();  // credit bound held throughout
}

TEST(EnqueueBatch, MixesWithSingleEnqueuesInFifoOrder) {
  sim::Simulation s;
  queue::CircularQueue<Entry> q(s, 8, queue::local_transport(s));
  std::vector<int> got;
  auto producer = [&]() -> Proc<void> {
    co_await q.enqueue(Entry{0});
    std::vector<Entry> mid;
    for (int i = 1; i <= 5; ++i) mid.push_back(Entry{i});
    co_await q.enqueue_batch(std::move(mid));
    co_await q.enqueue(Entry{6});
  };
  auto consumer = [&]() -> Proc<void> {
    for (int i = 0; i < 7; ++i) got.push_back((co_await q.dequeue()).v);
  };
  s.spawn(producer(), "p");
  s.spawn(consumer(), "c");
  s.run();
  for (int i = 0; i < 7; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

// enqueue is the one-entry case of enqueue_batch: one posted write of
// n*sizeof(Entry) + 8 bytes per committed chunk, whether the entries are
// owned by the batch or borrowed through a span.
TEST(EnqueueBatch, OnePostedWritePerChunkForSingleAndBorrowedEntries) {
  sim::Simulation s;
  std::vector<double> writes;
  queue::Transport t = queue::local_transport(s);
  t.write = [&writes, local = t.write](double bytes,
                                       std::function<void()> commit) {
    writes.push_back(bytes);
    return local(bytes, std::move(commit));
  };
  queue::CircularQueue<Entry> q(s, 8, std::move(t));
  const std::array<Entry, 3> borrowed{Entry{1}, Entry{2}, Entry{3}};
  std::vector<int> got;
  auto producer = [&]() -> Proc<void> {
    co_await q.enqueue(Entry{0});
    co_await q.enqueue_batch(std::span<const Entry>(borrowed));
  };
  auto consumer = [&]() -> Proc<void> {
    for (int i = 0; i < 4; ++i) got.push_back((co_await q.dequeue()).v);
  };
  s.spawn(producer(), "p");
  s.spawn(consumer(), "c");
  s.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  const double seq = sizeof(std::uint64_t);
  EXPECT_EQ(writes, (std::vector<double>{sizeof(Entry) + seq,
                                         3 * sizeof(Entry) + seq}));
  EXPECT_EQ(q.enqueues(), 4u);
}

TEST(EnqueueBatch, EmptyBatchIsANoOp) {
  sim::Simulation s;
  queue::CircularQueue<Entry> q(s, 4, queue::local_transport(s));
  auto producer = [&]() -> Proc<void> { co_await q.enqueue_batch({}); };
  s.spawn(producer(), "p");
  s.run();
  EXPECT_EQ(q.enqueues(), 0u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace dcuda
