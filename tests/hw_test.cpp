// Unit tests for the hardware substrates: PCIe link, network fabric, and the
// circular-buffer host↔device queues of §III-C.

#include <gtest/gtest.h>

#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "net/fabric.h"
#include "pcie/pcie.h"
#include "queue/circular_queue.h"
#include "sim/simulation.h"
#include "sim/units.h"

namespace dcuda {
namespace {

using sim::micros;
using sim::Proc;
using sim::Simulation;

sim::PcieConfig pcie_cfg() {
  sim::PcieConfig c;
  c.bandwidth = sim::gbs(10.0);
  c.txn_latency = micros(1.0);
  c.post_cost = micros(0.1);
  c.dma_startup = micros(5.0);
  return c;
}

TEST(Pcie, PostedWriteVisibleAfterLatency) {
  Simulation s;
  pcie::PcieLink link(s, pcie_cfg());
  sim::Time visible = -1;
  auto writer = [&]() -> Proc<void> {
    co_await link.post_write(pcie::Dir::kHostToDevice, 100.0,
                             [&] { visible = s.now(); });
  };
  auto h = s.spawn(writer(), "w");
  s.run();
  EXPECT_TRUE(h.done());
  // 100 B at 10 GB/s = 10ns serialization + 1us latency.
  EXPECT_NEAR(visible, micros(1.0) + sim::nanos(10), sim::nanos(1));
}

TEST(Pcie, PostedWriterContinuesAfterPostCost) {
  Simulation s;
  pcie::PcieLink link(s, pcie_cfg());
  sim::Time writer_done = -1;
  auto writer = [&]() -> Proc<void> {
    co_await link.post_write(pcie::Dir::kHostToDevice, 100.0, [] {});
    writer_done = s.now();
  };
  s.spawn(writer(), "w");
  s.run();
  EXPECT_NEAR(writer_done, micros(0.1), sim::nanos(1));
}

TEST(Pcie, PostedWritesCommitInOrder) {
  Simulation s;
  pcie::PcieLink link(s, pcie_cfg());
  std::vector<int> commits;
  auto writer = [&]() -> Proc<void> {
    co_await link.post_write(pcie::Dir::kHostToDevice, 1e5,
                             [&] { commits.push_back(1); });
    co_await link.post_write(pcie::Dir::kHostToDevice, 10.0,
                             [&] { commits.push_back(2); });
  };
  s.spawn(writer(), "w");
  s.run();
  EXPECT_EQ(commits, (std::vector<int>{1, 2}));
}

TEST(Pcie, MappedReadIsRoundTrip) {
  Simulation s;
  pcie::PcieLink link(s, pcie_cfg());
  sim::Time done = -1;
  auto reader = [&]() -> Proc<void> {
    co_await link.mapped_read(pcie::Dir::kDeviceToHost, 8.0);
    done = s.now();
  };
  s.spawn(reader(), "r");
  s.run();
  EXPECT_GE(done, micros(2.0));  // two transaction latencies
  EXPECT_LT(done, micros(2.1));
}

TEST(Pcie, DmaPaysStartupThenBandwidth) {
  Simulation s;
  pcie::PcieLink link(s, pcie_cfg());
  sim::Time done = -1;
  auto mover = [&]() -> Proc<void> {
    co_await link.dma(pcie::Dir::kHostToDevice, 1e6);  // 1 MB at 10 GB/s = 100us
    done = s.now();
  };
  s.spawn(mover(), "m");
  s.run();
  EXPECT_NEAR(done, micros(5.0 + 100.0 + 1.0), micros(0.01));
}

TEST(Pcie, DirectionsAreIndependent) {
  Simulation s;
  pcie::PcieLink link(s, pcie_cfg());
  sim::Time d1 = -1, d2 = -1;
  auto a = [&]() -> Proc<void> {
    co_await link.dma(pcie::Dir::kHostToDevice, 1e6);
    d1 = s.now();
  };
  auto b = [&]() -> Proc<void> {
    co_await link.dma(pcie::Dir::kDeviceToHost, 1e6);
    d2 = s.now();
  };
  s.spawn(a(), "a");
  s.spawn(b(), "b");
  s.run();
  EXPECT_NEAR(d1, d2, micros(0.01));  // full duplex: no serialization between
}

TEST(Pcie, CountsTransactions) {
  Simulation s;
  pcie::PcieLink link(s, pcie_cfg());
  auto w = [&]() -> Proc<void> {
    for (int i = 0; i < 5; ++i) {
      co_await link.post_write(pcie::Dir::kHostToDevice, 32.0, [] {});
    }
  };
  s.spawn(w(), "w");
  s.run();
  EXPECT_EQ(link.transactions(pcie::Dir::kHostToDevice), 5u);
  EXPECT_EQ(link.transactions(pcie::Dir::kDeviceToHost), 0u);
}

sim::NetConfig net_cfg() {
  sim::NetConfig c;
  c.bandwidth = sim::gbs(6.0);
  c.latency = micros(1.4);
  c.sw_overhead = micros(0.3);
  return c;
}

TEST(Fabric, DeliversWithLatencyAndOverheads) {
  Simulation s;
  net::Fabric fab(s, 2, net_cfg());
  sim::Time arrived = -1;
  auto rx = [&]() -> Proc<void> {
    (void)co_await fab.rx(1).pop();
    arrived = s.now();
  };
  s.spawn(rx(), "rx");
  fab.send(net::Packet(0, 1, 6000.0));  // 6 kB at 6 GB/s = 1us
  s.run();
  EXPECT_NEAR(arrived, micros(0.3 + 1.0 + 1.4 + 0.3), sim::nanos(10));
}

TEST(Fabric, FifoPerSourceDestinationPair) {
  Simulation s;
  net::Fabric fab(s, 2, net_cfg());
  std::vector<int> got;
  auto rx = [&]() -> Proc<void> {
    for (int i = 0; i < 3; ++i) {
      auto p = co_await fab.rx(1).pop();
      got.push_back(p.header<int>());
    }
  };
  s.spawn(rx(), "rx");
  for (const auto& [bytes, ordinal] :
       {std::pair{1e6, 1}, std::pair{8.0, 2}, std::pair{8.0, 3}}) {
    // The large packet goes first: it must not be overtaken.
    net::Packet p(0, 1, bytes);
    p.set_header(ordinal);
    fab.send(std::move(p));
  }
  s.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Packet, CarriesHeaderAndPayload) {
  net::Packet p(2, 3, 1000.0, net::kRuntimeChannel, 5);
  p.set_header(std::uint64_t{77});
  for (std::size_t i = 0; i < 5; ++i) p.data()[i] = std::byte(i);
  const net::Packet q = p.clone();
  net::Packet moved = std::move(p);
  EXPECT_FALSE(p);
  for (const net::Packet* x : {static_cast<const net::Packet*>(&moved), &q}) {
    EXPECT_EQ(x->src(), 2);
    EXPECT_EQ(x->dst(), 3);
    EXPECT_EQ(x->bytes(), 1000.0);
    EXPECT_EQ(x->channel(), net::kRuntimeChannel);
    EXPECT_EQ(x->header<std::uint64_t>(), 77u);
    ASSERT_EQ(x->data().size(), 5u);
    EXPECT_EQ(x->data()[4], std::byte{4});
  }
  EXPECT_NE(moved.data().data(), q.data().data());
}

// A released packet's payload buffer is cached by the block pool and stays
// poisoned until the next packet of its size class takes it.
TEST(Packet, CachedPayloadBuffersStayPoisoned) {
#if defined(__SANITIZE_ADDRESS__)
  const std::byte* data = nullptr;
  {
    net::Packet p(0, 1, 64.0, net::kMpiChannel, 4096);
    data = p.data().data();
    EXPECT_FALSE(__asan_address_is_poisoned(data));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(data));
  net::Packet q(0, 1, 64.0, net::kMpiChannel, 4096);
  EXPECT_EQ(q.data().data(), data);
  EXPECT_FALSE(__asan_address_is_poisoned(data));
#else
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

TEST(Fabric, SendersSerializeOnTheirNic) {
  Simulation s;
  net::Fabric fab(s, 3, net_cfg());
  std::vector<sim::Time> arrivals;
  auto rx = [&](int node, int n) -> Proc<void> {
    for (int i = 0; i < n; ++i) {
      (void)co_await fab.rx(node).pop();
      arrivals.push_back(s.now());
    }
  };
  s.spawn(rx(1, 2), "rx1");
  // Two 600 kB messages (100us wire each) from node 0 serialize.
  fab.send(net::Packet(0, 1, 6e5));
  fab.send(net::Packet(0, 1, 6e5));
  s.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], micros(100.0), micros(1.0));
}

TEST(Fabric, RateCapThrottlesMessage) {
  Simulation s;
  net::Fabric fab(s, 2, net_cfg());
  sim::Time arrived = -1;
  auto rx = [&]() -> Proc<void> {
    (void)co_await fab.rx(1).pop();
    arrived = s.now();
  };
  s.spawn(rx(), "rx");
  fab.send(net::Packet(0, 1, 3.2e6), sim::gbs(3.2));  // 1ms at cap
  s.run();
  EXPECT_NEAR(arrived, sim::millis(1.0), micros(5.0));
}

TEST(Fabric, AccountsPerNodeTraffic) {
  Simulation s;
  net::Fabric fab(s, 2, net_cfg());
  auto rx = [&]() -> Proc<void> { (void)co_await fab.rx(1).pop(); };
  s.spawn(rx(), "rx");
  fab.send(net::Packet(0, 1, 1234.0));
  s.run();
  EXPECT_DOUBLE_EQ(fab.bytes_sent(0), 1234.0);
  EXPECT_EQ(fab.messages_sent(0), 1u);
  EXPECT_EQ(fab.messages_sent(1), 0u);
}

// Packets land in the sink bound for their (node, channel): a null sink
// drops and counts them, a private mailbox takes them instead of the NIC's
// own, and binding the NIC's mailbox back restores the default.
TEST(Fabric, DeliversIntoTheBoundSink) {
  Simulation s;
  net::Fabric fab(s, 2, net_cfg());
  sim::Mailbox<net::Packet>& nic_rx = fab.rx(1, net::kRuntimeChannel);
  sim::Mailbox<net::Packet> mine(s);
  auto send = [&](int ordinal) {
    net::Packet p(0, 1, 64.0, net::kRuntimeChannel);
    p.set_header(ordinal);
    fab.send(std::move(p));
    s.run();
  };

  fab.bind_rx(1, net::kRuntimeChannel, nullptr);
  send(1);
  EXPECT_EQ(fab.rx_dropped(), 1u);
  EXPECT_TRUE(nic_rx.empty());

  fab.bind_rx(1, net::kRuntimeChannel, &mine);
  send(2);
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_EQ(mine.try_pop()->header<int>(), 2);
  EXPECT_TRUE(nic_rx.empty());

  fab.bind_rx(1, net::kRuntimeChannel, &nic_rx);
  send(3);
  EXPECT_TRUE(mine.empty());
  ASSERT_EQ(nic_rx.size(), 1u);
  EXPECT_EQ(nic_rx.try_pop()->header<int>(), 3);
  EXPECT_EQ(fab.rx_dropped(), 1u);
  EXPECT_TRUE(fab.rx(1, net::kMpiChannel).empty());
}

// -- Circular queue ---------------------------------------------------------

struct Cmd {
  int v = 0;
};

TEST(CircularQueue, LocalTransportRoundTrip) {
  Simulation s;
  queue::CircularQueue<Cmd> q(s, 4, queue::local_transport(s));
  std::vector<int> got;
  auto producer = [&]() -> Proc<void> {
    for (int i = 0; i < 10; ++i) co_await q.enqueue(Cmd{i});
  };
  auto consumer = [&]() -> Proc<void> {
    for (int i = 0; i < 10; ++i) {
      Cmd c = co_await q.dequeue();
      got.push_back(c.v);
      co_await s.delay(micros(0.5));  // slow consumer forces wrap + credits
    }
  };
  s.spawn(producer(), "p");
  s.spawn(consumer(), "c");
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(CircularQueue, CreditsLimitOutstandingEntries) {
  Simulation s;
  queue::CircularQueue<Cmd> q(s, 2, queue::local_transport(s));
  int produced = 0;
  auto producer = [&]() -> Proc<void> {
    for (int i = 0; i < 6; ++i) {
      co_await q.enqueue(Cmd{i});
      ++produced;
    }
  };
  s.spawn(producer(), "p");
  // No consumer yet: the producer must stall after filling the ring.
  auto consumer = [&]() -> Proc<void> {
    co_await s.delay(micros(100));
    for (int i = 0; i < 6; ++i) (void)co_await q.dequeue();
  };
  s.spawn(consumer(), "c");
  s.run_until(micros(50));
  EXPECT_EQ(produced, 2);  // capacity reached, credits exhausted
  s.run_until(sim::millis(10));
  EXPECT_EQ(produced, 6);
}

TEST(CircularQueue, SequenceNumbersSurviveWraparound) {
  Simulation s;
  queue::CircularQueue<Cmd> q(s, 3, queue::local_transport(s));
  int sum = 0;
  const int n = 1000;
  auto producer = [&]() -> Proc<void> {
    for (int i = 0; i < n; ++i) co_await q.enqueue(Cmd{i});
  };
  auto consumer = [&]() -> Proc<void> {
    for (int i = 0; i < n; ++i) {
      Cmd c = co_await q.dequeue();
      EXPECT_EQ(c.v, i);  // strict FIFO across many wraps
      sum += c.v;
    }
  };
  s.spawn(producer(), "p");
  s.spawn(consumer(), "c");
  s.run();
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(CircularQueue, TailReadsAreOccasional) {
  Simulation s;
  queue::CircularQueue<Cmd> q(s, 16, queue::local_transport(s));
  auto producer = [&]() -> Proc<void> {
    for (int i = 0; i < 64; ++i) co_await q.enqueue(Cmd{i});
  };
  auto consumer = [&]() -> Proc<void> {
    for (int i = 0; i < 64; ++i) (void)co_await q.dequeue();
  };
  s.spawn(producer(), "p");
  s.spawn(consumer(), "c");
  s.run();
  EXPECT_EQ(q.enqueues(), 64u);
  // Amortized: at most one tail read per ring's worth of entries (paper's
  // credit scheme), not one per enqueue.
  EXPECT_LE(q.tail_reads(), 64u / 16u + 2u);
}

TEST(CircularQueue, TryDequeueEmptyReturnsNullopt) {
  Simulation s;
  queue::CircularQueue<Cmd> q(s, 4, queue::local_transport(s));
  EXPECT_FALSE(q.try_dequeue().has_value());
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace dcuda
