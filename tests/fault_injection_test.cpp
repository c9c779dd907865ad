// Loss battery for the lossy fabric + go-back-N recovery protocol
// (net/fault.h, net/fabric.cc, docs/TESTING.md "Loss battery").
//
// Three layers:
//  * Fabric-level self-tests — each fault class (drop, dup, corrupt, delay,
//    link-down) actually fires at its configured rate, every packet still
//    lands exactly once and in order, and a run is bit-reproducible from its
//    perturbation seed (DCUDA_PERTURB_SEED overrides the seed used here).
//  * Mutation checks, wired as ctest cases: knocking out retransmission
//    makes the loss fuzz fail conservation; knocking out duplicate
//    suppression makes the at-most-once oracle fire. Each test PASSES by
//    proving the battery catches the mutation.
//  * A drop-rate × workload × seed sweep over full Cluster workloads
//    (stencil plus a mixed-size notified-put stream) with the
//    complete InvariantObserver suite and end-result validation.
//    DCUDA_FUZZ_SEEDS dials the per-cell seed count (docs/TESTING.md).
//
// Plus self-tests for the recovery oracles themselves (at-most-once,
// retransmit accounting), mirroring the oracle self-test pattern in
// tests/schedule_fuzz_test.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "apps/stencil.h"
#include "bench/env.h"
#include "cluster/cluster.h"
#include "net/fabric.h"
#include "net/fault.h"
#include "sim/invariants.h"
#include "sim/perturb.h"
#include "sim/simulation.h"

namespace dcuda {
namespace {

using sim::InvariantObserver;
using sim::Perturbation;
using sim::Proc;

std::uint64_t perturb_seed_env(std::uint64_t fallback) {
  return bench::env_u64("DCUDA_PERTURB_SEED", fallback);
}

int fuzz_seeds_env(int fallback) {
  return bench::env_int("DCUDA_FUZZ_SEEDS", fallback, 1);
}

// -- Fabric-level harness ------------------------------------------------
//
// Synthetic traffic straight into a Fabric: `bursts` packets per directed
// link of a small all-to-all, alternating sizes and rate caps, payload
// carrying the per-link ordinal so receive order is checkable end to end.

struct FabricRun {
  net::Fabric::FaultStats stats;
  std::string violations;     // oracle report lines ("" == clean)
  bool delivered_in_order = true;
  std::uint64_t delivered = 0;
  double end_time = 0.0;
  std::uint64_t decisions = 0;  // kFault coins drawn
};

FabricRun drive_fabric(const net::FaultConfig& fc, std::uint64_t seed,
                       int nodes, int bursts) {
  FabricRun out;
  sim::Simulation sim;
  sim.set_perturbation(seed, Perturbation::kFault);
  InvariantObserver obs;
  sim.set_invariant_observer(&obs);
  net::Fabric fabric(sim, nodes, sim::NetConfig{}, fc);
  for (int b = 0; b < bursts; ++b) {
    // Stagger injections so transmissions interleave with recoveries.
    sim.schedule(sim::micros(2.0 * b), [&fabric, nodes, b]() {
      for (int s = 0; s < nodes; ++s) {
        for (int d = 0; d < nodes; ++d) {
          if (s == d) continue;
          net::Packet p(s, d, b % 3 == 0 ? 4096.0 : 128.0);
          p.set_header(std::uint64_t(b));
          fabric.send(std::move(p),
                      b % 5 == 0 ? sim::gbs(3.2)
                                 : std::numeric_limits<sim::Rate>::infinity());
        }
      }
    });
  }
  sim.run();
  out.end_time = sim.now();
  out.stats = fabric.fault_stats();
  if (Perturbation* p = sim.perturbation()) {
    out.decisions = p->decisions(Perturbation::kFault);
  }
  // Each link must hold its packets in injection order with no loss and no
  // duplication.
  for (int d = 0; d < nodes; ++d) {
    std::vector<std::uint64_t> last(static_cast<size_t>(nodes), 0);
    std::vector<bool> seen(static_cast<size_t>(nodes), false);
    while (auto p = fabric.rx(d).try_pop()) {
      ++out.delivered;
      const auto ord = p->header<std::uint64_t>();
      const auto s = static_cast<size_t>(p->src());
      if (seen[s] && ord <= last[s]) out.delivered_in_order = false;
      seen[s] = true;
      last[s] = ord;
    }
  }
  obs.finalize();
  for (const std::string& v : obs.violations()) out.violations += v + "\n";
  return out;
}

// -- Fault-class self-tests ---------------------------------------------

// Binomial sanity: observed/expected within a factor of 2 plus slack for
// small counts. Rates are per transmission (retransmits draw coins too).
void expect_rate(std::uint64_t hits, std::uint64_t trials, double p,
                 const char* what) {
  ASSERT_GT(trials, 0u);
  const double expected = static_cast<double>(trials) * p;
  const double slack = 3.0 * std::sqrt(expected) + 3.0;
  EXPECT_NEAR(static_cast<double>(hits), expected, expected * 0.5 + slack)
      << what << ": " << hits << " of " << trials << " at p=" << p;
}

TEST(FaultInjection, DropRateAndRecovery) {
  net::FaultConfig fc;
  fc.drop_prob = 0.05;
  FabricRun r = drive_fabric(fc, perturb_seed_env(0x5eed), 2, 1500);
  expect_rate(r.stats.drops, r.stats.originals + r.stats.retransmits,
              fc.drop_prob, "drop");
  EXPECT_GT(r.stats.retransmits, 0u);
  EXPECT_GT(r.stats.timeouts, 0u);
  EXPECT_EQ(r.delivered, 2u * 1500u);  // exactly once despite the losses
  EXPECT_TRUE(r.delivered_in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(FaultInjection, DuplicateRateAndSuppression) {
  net::FaultConfig fc;
  fc.dup_prob = 0.08;
  FabricRun r = drive_fabric(fc, perturb_seed_env(0x5eed), 2, 1500);
  expect_rate(r.stats.dups, r.stats.originals + r.stats.retransmits,
              fc.dup_prob, "dup");
  EXPECT_GE(r.stats.dup_suppressed, r.stats.dups);  // every injected copy eaten
  EXPECT_EQ(r.delivered, 2u * 1500u);
  EXPECT_TRUE(r.delivered_in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(FaultInjection, CorruptRateIsRepairedLikeLoss) {
  net::FaultConfig fc;
  fc.corrupt_prob = 0.04;
  FabricRun r = drive_fabric(fc, perturb_seed_env(0x5eed), 2, 1500);
  expect_rate(r.stats.corrupts, r.stats.originals + r.stats.retransmits,
              fc.corrupt_prob, "corrupt");
  EXPECT_GT(r.stats.retransmits, 0u);
  EXPECT_EQ(r.delivered, 2u * 1500u);
  EXPECT_TRUE(r.delivered_in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(FaultInjection, DelaySpikesReorderTheWireNotTheMailbox) {
  net::FaultConfig fc;
  fc.delay_prob = 0.1;
  fc.delay_spike = sim::micros(50.0);
  FabricRun r = drive_fabric(fc, perturb_seed_env(0x5eed), 2, 1500);
  expect_rate(r.stats.delays, r.stats.originals + r.stats.retransmits,
              fc.delay_prob, "delay");
  // A 50 us spike overtakes several later packets on the wire; go-back-N
  // discards the gap and repairs by retransmission, so order survives.
  EXPECT_GT(r.stats.ooo_discarded, 0u);
  EXPECT_EQ(r.delivered, 2u * 1500u);
  EXPECT_TRUE(r.delivered_in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(FaultInjection, LinkDownWindowsEatInFlightTraffic) {
  net::FaultConfig fc;
  fc.link_down_prob = 0.01;
  fc.link_down_duration = sim::micros(30.0);
  FabricRun r = drive_fabric(fc, perturb_seed_env(0x5eed), 2, 1500);
  expect_rate(r.stats.link_downs, r.stats.originals + r.stats.retransmits,
              fc.link_down_prob, "link-down");
  // An outage eats at least its trigger packet, usually more.
  EXPECT_GE(r.stats.outage_losses, r.stats.link_downs);
  EXPECT_EQ(r.delivered, 2u * 1500u);
  EXPECT_TRUE(r.delivered_in_order);
  EXPECT_EQ(r.violations, "");
}

TEST(FaultInjection, CombinedFaultsOnAllToAllStaysExactlyOnce) {
  net::FaultConfig fc;
  fc.drop_prob = 0.03;
  fc.dup_prob = 0.02;
  fc.corrupt_prob = 0.01;
  fc.delay_prob = 0.02;
  fc.link_down_prob = 0.002;
  FabricRun r = drive_fabric(fc, perturb_seed_env(0x5eed), 4, 400);
  EXPECT_EQ(r.delivered, 12u * 400u);
  EXPECT_TRUE(r.delivered_in_order);
  EXPECT_EQ(r.violations, "");
  EXPECT_GT(r.stats.retransmits, 0u);
  EXPECT_GT(r.decisions, 0u);
}

TEST(FaultInjection, SameSeedReplaysBitIdentically) {
  net::FaultConfig fc;
  fc.drop_prob = 0.04;
  fc.dup_prob = 0.02;
  fc.delay_prob = 0.02;
  fc.link_down_prob = 0.002;
  const std::uint64_t seed = perturb_seed_env(0x5eed);
  FabricRun a = drive_fabric(fc, seed, 3, 400);
  FabricRun b = drive_fabric(fc, seed, 3, 400);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.stats.drops, b.stats.drops);
  EXPECT_EQ(a.stats.dups, b.stats.dups);
  EXPECT_EQ(a.stats.corrupts, b.stats.corrupts);
  EXPECT_EQ(a.stats.delays, b.stats.delays);
  EXPECT_EQ(a.stats.link_downs, b.stats.link_downs);
  EXPECT_EQ(a.stats.retransmits, b.stats.retransmits);
  EXPECT_EQ(a.stats.timeouts, b.stats.timeouts);
  EXPECT_EQ(a.stats.acks_sent, b.stats.acks_sent);
  // A different seed lands on a different fault history.
  FabricRun c = drive_fabric(fc, seed + 1, 3, 400);
  EXPECT_NE(a.stats.drops + a.stats.dups + a.stats.delays,
            c.stats.drops + c.stats.dups + c.stats.delays);
}

TEST(FaultInjection, ZeroProbabilitiesDrawNothingAndStayOnLegacyPath) {
  net::FaultConfig fc;  // all zero
  EXPECT_FALSE(fc.any());
  FabricRun r = drive_fabric(fc, perturb_seed_env(0x5eed), 2, 200);
  EXPECT_EQ(r.decisions, 0u);  // kFault stream untouched
  EXPECT_EQ(r.stats.originals, 0u);  // reliable path: protocol not armed
  EXPECT_EQ(r.delivered, 2u * 200u);
  EXPECT_TRUE(r.delivered_in_order);
  EXPECT_EQ(r.violations, "");
}

// -- Mutation checks (docs/TESTING.md) ----------------------------------
//
// Each test knocks one recovery mechanism out and PASSES by observing the
// loss battery fail: the protocol's correctness is only credible if its
// absence is detectable.

TEST(FaultMutation, DisablingRetransmissionFailsLossConservation) {
  net::FaultConfig fc;
  fc.drop_prob = 0.05;
  fc.retransmit = false;  // mutation: first loss stalls the window forever
  sim::Simulation sim;
  sim.set_perturbation(0x5eed, Perturbation::kFault);
  InvariantObserver obs;
  sim.set_invariant_observer(&obs);
  net::Fabric fabric(sim, 2, sim::NetConfig{}, fc);
  for (int b = 0; b < 400; ++b) {
    sim.schedule(sim::micros(2.0 * b), [&fabric, b]() {
      net::Packet p(0, 1, 128.0);
      p.set_header(std::uint64_t(b));
      fabric.send(std::move(p));
    });
  }
  sim.run();
  obs.finalize();
  EXPECT_FALSE(obs.ok()) << "loss fuzz failed to notice missing retransmission";
  EXPECT_NE(obs.report().find("lossy-fabric conservation"), std::string::npos)
      << obs.report();
  EXPECT_EQ(fabric.fault_stats().retransmits, 0u);
  EXPECT_LT(fabric.rx(1).size(), 400u);  // traffic really was lost
}

TEST(FaultMutation, DisablingDupSuppressionFailsAtMostOnceOracle) {
  net::FaultConfig fc;
  fc.dup_prob = 0.2;
  fc.dup_suppress = false;  // mutation: duplicates reach the mailbox
  sim::Simulation sim;
  sim.set_perturbation(0x5eed, Perturbation::kFault);
  InvariantObserver obs;
  sim.set_invariant_observer(&obs);
  net::Fabric fabric(sim, 2, sim::NetConfig{}, fc);
  for (int b = 0; b < 400; ++b) {
    sim.schedule(sim::micros(2.0 * b), [&fabric, b]() {
      net::Packet p(0, 1, 128.0);
      p.set_header(std::uint64_t(b));
      fabric.send(std::move(p));
    });
  }
  sim.run();
  obs.finalize();
  EXPECT_FALSE(obs.ok()) << "at-most-once oracle blind to duplicates";
  EXPECT_NE(obs.report().find("at-most-once delivery violated"),
            std::string::npos)
      << obs.report();
  EXPECT_GT(fabric.rx(1).size(), 400u);  // duplicates really got through
}

// -- Recovery-oracle self-tests -----------------------------------------
//
// Falsifiability on hand-built histories, mirroring the InvariantOracle
// tests in schedule_fuzz_test.cpp.

TEST(RecoveryOracle, DetectsDuplicateAccept) {
  InvariantObserver obs;
  obs.fabric_packet_sent(0, 1, 1, /*retransmit=*/false);
  obs.fabric_packet_accepted(0, 1, 1);
  obs.fabric_packet_accepted(0, 1, 1);  // suppression failed
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("at-most-once delivery violated"),
            std::string::npos);
}

TEST(RecoveryOracle, DetectsOutOfOrderAccept) {
  InvariantObserver obs;
  obs.fabric_packet_sent(0, 1, 1, false);
  obs.fabric_packet_sent(0, 1, 2, false);
  obs.fabric_packet_accepted(0, 1, 2);  // gap: seq 1 skipped
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("in-order delivery violated"), std::string::npos);
}

TEST(RecoveryOracle, DetectsAcceptOfNeverSentSequence) {
  InvariantObserver obs;
  obs.fabric_packet_accepted(0, 1, 1);
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("never sent"), std::string::npos);
}

TEST(RecoveryOracle, DetectsRetransmitOfNeverSentSequence) {
  InvariantObserver obs;
  obs.fabric_packet_sent(0, 1, 1, false);
  obs.fabric_packet_sent(0, 1, 5, /*retransmit=*/true);  // only seq 1 exists
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("retransmit of never-sent"), std::string::npos);
}

TEST(RecoveryOracle, DetectsFreshSequenceSkip) {
  InvariantObserver obs;
  obs.fabric_packet_sent(0, 1, 2, false);  // fresh send must start at 1
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("sequence assignment"), std::string::npos);
}

TEST(RecoveryOracle, DetectsLossWithoutRecovery) {
  InvariantObserver obs;
  obs.fabric_packet_sent(0, 1, 1, false);
  obs.fabric_packet_dropped(0, 1, 1);
  obs.finalize();  // nothing ever accepted
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("lossy-fabric conservation"), std::string::npos);
}

TEST(RecoveryOracle, DetectsRecoveryWithoutRetransmitAccounting) {
  // A loss was recorded and yet everything arrived with zero retransmits —
  // the counters cannot both be right.
  InvariantObserver obs;
  obs.fabric_packet_sent(0, 1, 1, false);
  obs.fabric_packet_dropped(0, 1, 1);
  obs.fabric_packet_accepted(0, 1, 1);
  obs.finalize();
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("retransmit accounting violated"),
            std::string::npos);
}

TEST(RecoveryOracle, CleanLossyHistoryPasses) {
  InvariantObserver obs;
  obs.fabric_packet_sent(0, 1, 1, false);
  obs.fabric_packet_dropped(0, 1, 1);
  obs.fabric_packet_sent(0, 1, 2, false);
  obs.fabric_packet_sent(0, 1, 1, /*retransmit=*/true);
  obs.fabric_packet_accepted(0, 1, 1);
  obs.fabric_packet_accepted(0, 1, 2);
  obs.fabric_delivered(0, 1, 1);
  obs.fabric_delivered(0, 1, 2);
  obs.finalize();
  EXPECT_TRUE(obs.ok()) << obs.report();
}

// -- Drop-rate × workload × seed sweep over Cluster workloads ------------

sim::MachineConfig faulty_machine(int nodes, std::uint64_t seed, double drop) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  m.perturb_seed = seed;
  m.fault.drop_prob = drop;
  m.fault.dup_prob = drop / 2.0;
  m.fault.corrupt_prob = drop / 4.0;
  m.fault.delay_prob = drop / 2.0;
  if (seed % 2 == 1) m.fault.link_down_prob = drop / 50.0;
  // Backend lane (docs/BACKENDS.md): alternate seeds drive the lossy fabric
  // from the device-initiated backend, proving go-back-N recovery does not
  // depend on the host event loop. Bit 1 keeps the lane independent of the
  // link-down selector above.
  if ((seed >> 1) & 1) m.backend = sim::RuntimeBackend::kDeviceInitiated;
  // Topology lane (docs/TOPOLOGY.md): bits 2-3 run the lossy fabric over a
  // fat tree, a torus, or two striped NIC rails, so go-back-N recovery is
  // exercised on multi-hop paths (retransmissions re-routed per ECMP) and
  // under the rail mux's cross-rail resequencing.
  switch ((seed >> 2) & 3) {
    case 1: m.net.topo.kind = net::TopologyKind::kFatTree; break;
    case 2: m.net.topo.kind = net::TopologyKind::kTorus3D; break;
    case 3:
      m.net.topo.kind = net::TopologyKind::kFatTree;
      m.net.topo.rails = 2;
      break;
    default: break;
  }
  return m;
}

std::string run_faulty_stencil(std::uint64_t seed, double drop) {
  apps::stencil::Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 4;
  Cluster c({.machine = faulty_machine(2, seed, drop), .ranks_per_device = 4});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  apps::stencil::Result res = apps::stencil::run_dcuda(c, cfg);
  std::string errors;
  static const double want = apps::stencil::reference_checksum(cfg, 2, 4);
  if (std::abs(res.checksum - want) > 1e-9) {
    std::ostringstream os;
    os << "  checksum: stencil got " << res.checksum << " want " << want << "\n";
    errors += os.str();
  }
  obs.finalize();
  for (const std::string& v : obs.violations()) errors += "  oracle: " + v + "\n";
  return errors;
}

// Mixed-size notified puts: each rank streams small put_notifys and one
// larger put to its peer on the other node, then payloads are validated
// byte for byte.
std::string run_faulty_mixed(std::uint64_t seed, double drop) {
  const int nodes = 2, rpd = 2;
  const int world = nodes * rpd;
  constexpr int kElems = 32;
  constexpr int kRounds = 4;
  constexpr int kBigElems = 12 * kElems;
  Cluster c({.machine = faulty_machine(nodes, seed, drop),
             .ranks_per_device = rpd});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  auto value = [](int origin, int round, int e) {
    return origin * 1000.0 + round * 100.0 + 0.5 * e;
  };
  const std::size_t win_elems = kRounds * kElems + kBigElems;
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
    Window w = co_await win_create(ctx, kCommWorld, recv[static_cast<size_t>(g)]);
    const int peer = (g + rpd) % world;
    std::span<double> sbuf = send[static_cast<size_t>(g)];
    for (int round = 0; round < kRounds; ++round) {
      std::span<double> chunk =
          sbuf.subspan(static_cast<size_t>(round) * kElems, kElems);
      for (int e = 0; e < kElems; ++e) {
        chunk[static_cast<size_t>(e)] = value(g, round, e);
      }
      co_await put_notify(ctx, w, peer, static_cast<size_t>(round) * kElems,
                          std::span<const double>(chunk), /*tag=*/round);
    }
    std::span<double> big = sbuf.subspan(
        static_cast<size_t>(kRounds) * kElems, kBigElems);
    for (int e = 0; e < kBigElems; ++e) {
      big[static_cast<size_t>(e)] = value(g, 9, e);
    }
    co_await put_notify(ctx, w, peer, static_cast<size_t>(kRounds) * kElems,
                        std::span<const double>(big), /*tag=*/99);
    co_await flush(ctx);
    co_await wait_notifications(ctx, w, kAnySource, kAnyTag, kRounds + 1);
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  std::string errors;
  for (int g = 0; g < world; ++g) {
    const int origin = (g + rpd) % world;
    const std::span<double> buf = recv[static_cast<size_t>(g)];
    for (int round = 0; round < kRounds; ++round) {
      for (int e = 0; e < kElems; ++e) {
        const double got =
            buf[static_cast<size_t>(round) * kElems + static_cast<size_t>(e)];
        if (got != value(origin, round, e)) {
          std::ostringstream os;
          os << "  payload: rank " << g << " round " << round << " elem " << e
             << " got " << got << " want " << value(origin, round, e) << "\n";
          errors += os.str();
          round = kRounds;
          break;
        }
      }
    }
    for (int e = 0; e < kBigElems; ++e) {
      if (buf[static_cast<size_t>(kRounds * kElems + e)] != value(origin, 9, e)) {
        errors += "  payload: large put corrupted\n";
        break;
      }
    }
  }
  obs.finalize();
  for (const std::string& v : obs.violations()) errors += "  oracle: " + v + "\n";
  return errors;
}

// 3 drop rates × 2 workloads × (default) 36 seeds = 216 combinations, on
// top of the loss dimension schedule_fuzz_test sweeps across all its
// workloads. Seed range 0x58000 is disjoint from every other sweep.
TEST(FaultSweep, DropRateByWorkloadBySeed) {
  static constexpr double kRates[] = {0.001, 0.01, 0.05};
  const int seeds = fuzz_seeds_env(36);
  for (double drop : kRates) {
    for (int i = 0; i < seeds; ++i) {
      const std::uint64_t seed = 0x58000 + static_cast<std::uint64_t>(i);
      std::string e = run_faulty_stencil(seed, drop);
      ASSERT_TRUE(e.empty()) << "stencil drop=" << drop << " seed=" << seed
                             << "\n" << e;
      e = run_faulty_mixed(seed, drop);
      ASSERT_TRUE(e.empty()) << "mixed drop=" << drop << " seed=" << seed
                             << "\n" << e;
    }
  }
}

}  // namespace
}  // namespace dcuda
