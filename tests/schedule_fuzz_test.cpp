// Schedule-perturbation fuzzing harness (docs/TESTING.md).
//
// Each fuzz case runs a mini-workload on a Cluster whose event schedule is
// perturbed by a seeded sim::Perturbation (tie-break shuffling, link jitter,
// SM pick variation, fault-injection coins) while a sim::InvariantObserver
// checks the runtime's ordering and conservation guarantees. The workload
// result is additionally validated against its serial reference, so a
// schedule-dependent wrong answer is caught even when every protocol
// invariant holds.
//
// The perturbation space has a loss dimension: the seed also picks a
// net::FaultConfig (drop rate ladder 0/0.1%/1%/3%, plus duplicates,
// corruption, delay spikes and link outages at the lossy rungs), so three
// in four seeds run every workload over the lossy fabric with the NIC-level
// go-back-N recovery protocol underneath. Masking Perturbation::kFault
// silences every coin, which lets the shrinker take the loss dimension out
// of a failing case like any other class.
//
// DCUDA_FUZZ_SEEDS=<n> overrides the per-sweep seed count (dial the fuzz
// ctest tier down locally, up in CI).
//
// On failure the harness shrinks the perturbation to a minimal failing class
// mask and prints the seed, the per-class decision counts, the tail of the
// decision trace, and a one-command replay line:
//
//   DCUDA_FUZZ_WORKLOAD=<w> DCUDA_FUZZ_SEED=<s> DCUDA_FUZZ_CLASSES=<m>
//     tests/schedule_fuzz_test --gtest_filter=ScheduleFuzz.ReplayFromEnv
//
// Seed ranges are disjoint per sweep so every case in the suite exercises a
// distinct perturbation (>200 seeds total across the four workloads).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/dpd3d.h"
#include "apps/particles.h"
#include "apps/spmv.h"
#include "apps/stencil.h"
#include "bench/env.h"
#include "cluster/cluster.h"
#include "net/fault.h"
#include "net/topology.h"
#include "sim/invariants.h"
#include "sim/perturb.h"

namespace dcuda {
namespace {

using sim::InvariantObserver;
using sim::Perturbation;
using sim::Proc;

// Loss dimension of the perturbation space (docs/TESTING.md "Loss
// battery"): seed % 4 walks the drop-rate ladder — every fourth seed stays
// lossless on the reliable wire — and the lossy rungs add duplicate,
// corruption, delay-spike and (on odd seeds) link-outage coins so the
// go-back-N recovery machinery runs underneath the workload.
net::FaultConfig fuzz_faults(std::uint64_t seed) {
  static constexpr double kDrop[] = {0.0, 0.001, 0.01, 0.03};
  net::FaultConfig f;
  f.drop_prob = kDrop[seed % 4];
  if (f.drop_prob > 0.0) {
    f.dup_prob = 0.005;
    f.corrupt_prob = 0.002;
    f.delay_prob = 0.005;
    if (seed % 2 == 1) f.link_down_prob = 0.0005;
  }
  return f;
}

sim::MachineConfig fuzz_machine(int nodes, std::uint64_t seed,
                                std::uint32_t classes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  m.perturb_seed = seed;
  m.perturb_classes = classes;
  m.fault = fuzz_faults(seed);
  // Backend lane (docs/BACKENDS.md): half of every sweep's seeds run the
  // device-initiated backend, so perturbation × fault × backend coverage
  // comes for free from the existing seed ranges. Bit 2 is independent of
  // the fault-rate selector (seed % 4) within each aligned 8-seed window.
  if ((seed >> 2) & 1) m.backend = sim::RuntimeBackend::kDeviceInitiated;
  // Executor lane (docs/PERF.md, "Parallel engine"): the seed also picks an
  // executor-group count (1/2/4/8) and, on half of those seeds, a second
  // worker thread. Executor knobs never change results — the window
  // protocol is executor-invariant by construction — so every fuzz sweep
  // doubles as an engine-invariance battery across perturbation × fault ×
  // backend × executor combinations.
  m.shards = 1 << ((seed >> 3) & 3);
  if ((seed >> 5) & 1) m.threads = 2;
  // Topology lane (docs/TOPOLOGY.md): bits 6-7 pick the interconnect —
  // flat (paper default), fat tree, torus, or flat with 2 NIC rails — and
  // bit 8 doubles the rails on the non-flat kinds, so go-back-N recovery
  // and the FIFO contract get fuzzed over multi-hop routes and striped
  // rails with receive-side resequencing in the loop.
  switch ((seed >> 6) & 3) {
    case 1: m.net.topo.kind = net::TopologyKind::kFatTree; break;
    case 2: m.net.topo.kind = net::TopologyKind::kTorus3D; break;
    case 3: m.net.topo.rails = 2; break;
    default: break;
  }
  if (m.net.topo.kind != net::TopologyKind::kFlat && ((seed >> 8) & 1)) {
    m.net.topo.rails = 2;
  }
  return m;
}

// DCUDA_FUZZ_SEEDS overrides every sweep's seed count (bounded by the
// 0x1000 spacing of the disjoint per-sweep seed ranges).
int sweep_count(int default_count) {
  return std::min(bench::env_int("DCUDA_FUZZ_SEEDS", default_count, 1), 0xfff);
}

// Outcome of one perturbed run: validation errors (empty == pass) plus the
// perturbation introspection needed for a useful failure report.
struct RunResult {
  double elapsed = 0.0;
  std::string errors;
  std::string obs_report;
  std::uint64_t decisions[Perturbation::kNumClasses] = {};
  std::string trace_txt;
};

void collect(Cluster& c, InvariantObserver& obs, RunResult& r) {
  obs.finalize();
  for (const std::string& v : obs.violations()) {
    r.errors += "  oracle: " + v + "\n";
  }
  r.obs_report = obs.report();
  if (Perturbation* p = c.sim().perturbation()) {
    r.decisions[0] = p->decisions(Perturbation::kTieBreak);
    r.decisions[1] = p->decisions(Perturbation::kLinkJitter);
    r.decisions[2] = p->decisions(Perturbation::kSmPick);
    r.decisions[3] = p->decisions(Perturbation::kFault);
    Perturbation::Decision tail[Perturbation::kTraceCap];
    const std::size_t n = p->trace(tail);
    std::ostringstream os;
    for (std::size_t i = 0; i < n; ++i) {
      os << (tail[i].cls == Perturbation::kTieBreak     ? " t:"
             : tail[i].cls == Perturbation::kLinkJitter ? " j:"
             : tail[i].cls == Perturbation::kSmPick     ? " s:"
                                                        : " f:")
         << std::hex << (tail[i].value >> 48);
    }
    r.trace_txt = os.str();
  }
}

// -- Workloads ---------------------------------------------------------

RunResult run_stencil(std::uint64_t seed, std::uint32_t classes) {
  RunResult r;
  apps::stencil::Config cfg;
  cfg.isize = 16;  // 128-byte halo lines: every notified put is eager
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 4;
  Cluster c({.machine = fuzz_machine(2, seed, classes), .ranks_per_device = 4});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  apps::stencil::Result res = apps::stencil::run_dcuda(c, cfg);
  r.elapsed = res.elapsed;
  static const double want = apps::stencil::reference_checksum(cfg, 2, 4);
  if (std::abs(res.checksum - want) > 1e-9) {
    std::ostringstream os;
    os << "  checksum: stencil got " << res.checksum << " want " << want << "\n";
    r.errors += os.str();
  }
  collect(c, obs, r);
  return r;
}

RunResult run_particles(std::uint64_t seed, std::uint32_t classes) {
  RunResult r;
  apps::particles::Config cfg;
  cfg.cells_per_node = 4;
  cfg.particles_per_cell = 12;
  cfg.iterations = 10;
  cfg.dt = 0.02;
  Cluster c({.machine = fuzz_machine(2, seed, classes), .ranks_per_device = 4});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  apps::particles::Result res = apps::particles::run_dcuda(c, cfg);
  r.elapsed = res.elapsed;
  static const apps::particles::Result ref = apps::particles::reference(cfg, 2);
  if (res.total_particles != ref.total_particles) {
    std::ostringstream os;
    os << "  conservation: " << res.total_particles << " particles, want "
       << ref.total_particles << "\n";
    r.errors += os.str();
  }
  if (std::abs(res.checksum - ref.checksum) >
      1e-9 * std::abs(ref.checksum) + 1e-9) {
    std::ostringstream os;
    os << "  checksum: particles got " << res.checksum << " want "
       << ref.checksum << "\n";
    r.errors += os.str();
  }
  collect(c, obs, r);
  return r;
}

RunResult run_spmv(std::uint64_t seed, std::uint32_t classes) {
  RunResult r;
  apps::spmv::Config cfg;
  cfg.n_dev = 32;  // 8 rows per rank at rpd=4
  cfg.density = 0.05;
  cfg.iterations = 2;
  Cluster c({.machine = fuzz_machine(4, seed, classes), .ranks_per_device = 4});  // 2x2 device grid
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  apps::spmv::Result res = apps::spmv::run_dcuda(c, cfg);
  r.elapsed = res.elapsed;
  static const double want = apps::spmv::reference_checksum(cfg, 4);
  if (std::abs(res.checksum - want) > 1e-9 * std::abs(want) + 1e-9) {
    std::ostringstream os;
    os << "  checksum: spmv got " << res.checksum << " want " << want << "\n";
    r.errors += os.str();
  }
  collect(c, obs, r);
  return r;
}

// 3-D DPD with the 27-direction halo exchange, skewed density and the
// work-adoption rebalance tickets in the loop (docs/TESTING.md, label
// `dpd3d`). The physics core runs in a fixed floating-point order, so the
// checksum must be *bitwise* equal to the serial reference under every
// perturbation, fault rung, backend, executor layout and topology lane —
// and the halo oracle plus particle conservation must stay clean.
RunResult run_dpd3d_impl(std::uint64_t seed, std::uint32_t classes,
                         bool break_compaction) {
  RunResult r;
  apps::dpd3d::Config cfg;
  cfg.cells_per_node = 4;  // 2 nodes -> 8 global cells, the 2 x 2 x 2 grid
  cfg.particles_per_cell = 12;
  cfg.iterations = 6;
  cfg.dt = 0.05;
  cfg.density = apps::dpd3d::Density::kSkewed;
  cfg.skew_drift = 1.0;
  cfg.rebalance = true;  // ticket puts ride the same perturbed schedule
  cfg.break_compaction = break_compaction;
  Cluster c({.machine = fuzz_machine(2, seed, classes), .ranks_per_device = 4});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  apps::dpd3d::Result res = apps::dpd3d::run_dcuda(c, cfg);
  r.elapsed = res.elapsed;
  const std::int64_t want_particles = 2ll * 4 * cfg.particles_per_cell;
  if (res.total_particles != want_particles) {
    std::ostringstream os;
    os << "  conservation: " << res.total_particles << " particles, want "
       << want_particles << "\n";
    r.errors += os.str();
  }
  if (res.halo_violations != 0) {
    std::ostringstream os;
    os << "  halo oracle: " << res.halo_violations << " geometry violations\n";
    r.errors += os.str();
  }
  apps::dpd3d::Config clean = cfg;
  clean.break_compaction = false;
  static const apps::dpd3d::Result ref = apps::dpd3d::reference(clean, 2);
  if (!break_compaction && res.checksum != ref.checksum) {
    std::ostringstream os;
    os << "  checksum: dpd3d got " << res.checksum << " want " << ref.checksum
       << " (bitwise)\n";
    r.errors += os.str();
  }
  if (!break_compaction && res.halo_received_total != ref.halo_received_total) {
    std::ostringstream os;
    os << "  halo total: got " << res.halo_received_total << " want "
       << ref.halo_received_total << "\n";
    r.errors += os.str();
  }
  collect(c, obs, r);
  return r;
}

RunResult run_dpd3d(std::uint64_t seed, std::uint32_t classes) {
  return run_dpd3d_impl(seed, classes, /*break_compaction=*/false);
}

// Collectives and wildcard matching under perturbation: bcast_notify tree,
// a notified-put ring, a device-communicator barrier, and a shared-memory
// multicast (put_notify_all) — the operations whose correctness leans
// hardest on notification ordering.
RunResult run_collectives(std::uint64_t seed, std::uint32_t classes) {
  RunResult r;
  const int nodes = 2, rpd = 3;
  const int world = nodes * rpd;
  Cluster c({.machine = fuzz_machine(nodes, seed, classes), .ranks_per_device = rpd});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  std::vector<std::span<double>> bufs;
  for (int n = 0; n < nodes; ++n)
    for (int k = 0; k < rpd; ++k) bufs.push_back(c.device(n).alloc<double>(16));
  for (int g = 0; g < world; ++g)
    for (double& x : bufs[static_cast<size_t>(g)]) x = g == 0 ? 7.75 : 0.0;
  r.elapsed = c.run([&](Context& ctx) -> Proc<void> {
    auto mine = bufs[static_cast<size_t>(ctx.world_rank)];
    Window w = co_await win_create(ctx, kCommWorld, mine);
    co_await bcast_notify(ctx, w, kCommWorld, 0, 0, 16 * sizeof(double),
                          mine.data(), 9);
    co_await barrier(ctx, kCommWorld);
    // Notified-put ring: three rounds, tag per round.
    const int peer = (ctx.world_rank + 1) % ctx.world_size;
    for (int i = 0; i < 3; ++i) {
      co_await put_notify(ctx, w, peer, 0, 8 * sizeof(double), mine.data(), i);
      co_await wait_notifications(ctx, w, kAnySource, i, 1);
    }
    co_await barrier(ctx, kCommDevice);
    // Multicast from world rank 0 to every rank of node 1.
    if (ctx.world_rank == 0) {
      co_await put_notify_all(ctx, w, rpd, 0, 4 * sizeof(double), mine.data(), 77);
    }
    if (ctx.world_rank >= rpd) {
      co_await wait_notifications(ctx, w, kAnySource, 77, 1);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  for (int g = 0; g < world; ++g) {
    if (bufs[static_cast<size_t>(g)][15] != 7.75) {
      std::ostringstream os;
      os << "  bcast payload missing at rank " << g << "\n";
      r.errors += os.str();
    }
  }
  collect(c, obs, r);
  return r;
}

// Eager/aggregated small-put fast path (sim::RmaConfig) under perturbation:
// every rank streams same-sized notified puts to its peer on the other node
// (all below the eager threshold, so they aggregate), plus one
// rendezvous-sized put mixing the reference path in. The seed varies the
// protocol knobs too, so the sweep covers threshold × batch geometry.
// Payloads are validated byte-for-byte after the run; the oracle checks the
// eager-batch FIFO/conservation hooks and notified-put ordering.
RunResult run_eager(std::uint64_t seed, std::uint32_t classes) {
  RunResult r;
  const int nodes = 2, rpd = 3;
  const int world = nodes * rpd;
  constexpr int kElems = 32;   // 256 bytes per eager put
  constexpr int kRounds = 6;
  constexpr int kBigElems = 16 * kElems;  // 4 kB: above every threshold used
  sim::MachineConfig m = fuzz_machine(nodes, seed, classes);
  m.rma.eager_threshold = 256 + 128 * (seed % 3);       // 256/384/512 B
  m.rma.max_batch = 2 + static_cast<int>(seed % 5);     // 2..6 records
  m.rma.aggregation_window = sim::micros(1.0 + 0.5 * (seed % 4));
  Cluster c({.machine = m, .ranks_per_device = rpd});
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
    send[static_cast<size_t>(g)] = d.alloc<double>((kRounds + 16) * kElems);
    for (double& x : recv[static_cast<size_t>(g)]) x = -1.0;
  }
  r.elapsed = c.run([&](Context& ctx) -> Proc<void> {
    const int g = ctx.world_rank;
    Window w = co_await win_create(ctx, kCommWorld, recv[static_cast<size_t>(g)]);
    const int peer = (g + rpd) % world;  // same local rank, other node
    std::span<double> sbuf = send[static_cast<size_t>(g)];
    for (int round = 0; round < kRounds; ++round) {
      std::span<double> chunk = sbuf.subspan(
          static_cast<size_t>(round) * kElems, kElems);
      for (int e = 0; e < kElems; ++e) chunk[static_cast<size_t>(e)] = value(g, round, e);
      co_await put_notify(ctx, w, peer, static_cast<size_t>(round) * kElems,
                          std::span<const double>(chunk), /*tag=*/round);
    }
    std::span<double> big = sbuf.subspan(kRounds * kElems, kBigElems);
    for (int e = 0; e < kBigElems; ++e) big[static_cast<size_t>(e)] = value(g, 9, e);
    co_await put_notify(ctx, w, peer, static_cast<size_t>(kRounds) * kElems,
                        std::span<const double>(big), /*tag=*/99);
    co_await flush(ctx);
    co_await wait_notifications(ctx, w, kAnySource, kAnyTag, kRounds + 1);
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  for (int g = 0; g < world; ++g) {
    const int origin = (g + rpd) % world;
    const std::span<double> buf = recv[static_cast<size_t>(g)];
    for (int round = 0; round < kRounds; ++round) {
      for (int e = 0; e < kElems; ++e) {
        const double got = buf[static_cast<size_t>(round) * kElems +
                               static_cast<size_t>(e)];
        if (got != value(origin, round, e)) {
          std::ostringstream os;
          os << "  payload: rank " << g << " round " << round << " elem " << e
             << " got " << got << " want " << value(origin, round, e) << "\n";
          r.errors += os.str();
          round = kRounds;  // one line per rank is enough
          break;
        }
      }
    }
    for (int e = 0; e < kBigElems; ++e) {
      if (buf[static_cast<size_t>(kRounds * kElems + e)] != value(origin, 9, e)) {
        std::ostringstream os;
        os << "  payload: rank " << g << " rendezvous elem " << e << " wrong\n";
        r.errors += os.str();
        break;
      }
    }
  }
  collect(c, obs, r);
  return r;
}

// Mixed eager/rendezvous interleaving: each round sends a large
// NON-notified put (alternating 4 kB — rendezvous path, MPI-eager wire —
// and 12 kB — above the MPI eager limit, RTS-CTS) immediately followed by a
// small notified put, the particles pattern that can break non-overtaking
// across the protocol boundary. The receiver verifies the big payload *the
// moment the small notification matches*: a notification that beat its
// preceding data put shows up as a payload error even if every oracle were
// blind to it.
RunResult run_mixed(std::uint64_t seed, std::uint32_t classes) {
  RunResult r;
  const int nodes = 2, rpd = 2;
  const int world = nodes * rpd;
  constexpr int kElems = 32;     // 256 B: on the eager path at every threshold
  constexpr int kRounds = 4;
  constexpr int kBigMax = 1536;  // 12 kB > MpiConfig::eager_limit
  sim::MachineConfig m = fuzz_machine(nodes, seed, classes);
  m.rma.eager_threshold = 256 + 256 * (seed % 2);    // 256/512 B
  m.rma.max_batch = 2 + static_cast<int>(seed % 4);  // 2..5 records
  m.rma.aggregation_window = sim::micros(1.0 + 0.5 * (seed % 3));
  Cluster c({.machine = m, .ranks_per_device = rpd});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);

  auto big_elems = [](int round) { return round % 2 == 0 ? 512 : kBigMax; };
  auto small_val = [](int origin, int round, int e) {
    return origin * 1000.0 + round * 100.0 + 0.5 * e;
  };
  auto big_val = [](int origin, int round, int e) {
    return origin * 2000.0 + round * 200.0 + 0.25 * e;
  };
  // Window layout (doubles): kRounds small slots, then kRounds big slots.
  const std::size_t big_base = static_cast<size_t>(kRounds) * kElems;
  auto big_off = [&](int round) {
    return big_base + static_cast<size_t>(round) * kBigMax;
  };
  const std::size_t win_elems = big_base + static_cast<size_t>(kRounds) * kBigMax;
  std::vector<std::span<double>> recv(static_cast<size_t>(world));
  std::vector<std::span<double>> send(static_cast<size_t>(world));
  for (int g = 0; g < world; ++g) {
    gpu::Device& d = c.device(g / rpd);
    recv[static_cast<size_t>(g)] = d.alloc<double>(win_elems);
    send[static_cast<size_t>(g)] = d.alloc<double>(win_elems);
    for (double& x : recv[static_cast<size_t>(g)]) x = -1.0;
  }
  std::string late_data;
  r.elapsed = c.run([&](Context& ctx) -> Proc<void> {
    const int g = ctx.world_rank;
    Window w = co_await win_create(ctx, kCommWorld, recv[static_cast<size_t>(g)]);
    const int peer = (g + rpd) % world;    // same local rank, other node
    const int origin = (g + rpd) % world;  // symmetric for two nodes
    std::span<double> sbuf = send[static_cast<size_t>(g)];
    const std::span<double> rbuf = recv[static_cast<size_t>(g)];
    for (int round = 0; round < kRounds; ++round) {
      const int bn = big_elems(round);
      std::span<double> big = sbuf.subspan(big_off(round), static_cast<size_t>(bn));
      for (int e = 0; e < bn; ++e) big[static_cast<size_t>(e)] = big_val(g, round, e);
      std::span<double> small =
          sbuf.subspan(static_cast<size_t>(round) * kElems, kElems);
      for (int e = 0; e < kElems; ++e) small[static_cast<size_t>(e)] = small_val(g, round, e);
      co_await put(ctx, w, peer, big_off(round), std::span<const double>(big));
      co_await put_notify(ctx, w, peer, static_cast<size_t>(round) * kElems,
                          std::span<const double>(small), /*tag=*/round);
      // The notification implies the same-origin big put of this round (and
      // all earlier rounds) landed (§III-B). Check the window right now.
      co_await wait_notifications(ctx, w, origin, /*tag=*/round, 1);
      for (int e = 0; e < bn; ++e) {
        if (rbuf[big_off(round) + static_cast<size_t>(e)] !=
            big_val(origin, round, e)) {
          std::ostringstream os;
          os << "  non-overtaking: rank " << g << " round " << round
             << " notified (tag " << round << ") before big elem " << e
             << " landed\n";
          late_data += os.str();
          break;
        }
      }
    }
    co_await flush(ctx);
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  r.errors += late_data;
  for (int g = 0; g < world; ++g) {
    const int origin = (g + rpd) % world;
    const std::span<double> buf = recv[static_cast<size_t>(g)];
    for (int round = 0; round < kRounds && r.errors.empty(); ++round) {
      for (int e = 0; e < kElems; ++e) {
        if (buf[static_cast<size_t>(round) * kElems + static_cast<size_t>(e)] !=
            small_val(origin, round, e)) {
          std::ostringstream os;
          os << "  payload: rank " << g << " small round " << round
             << " elem " << e << " wrong\n";
          r.errors += os.str();
          break;
        }
      }
    }
  }
  collect(c, obs, r);
  return r;
}

// -- Driver ------------------------------------------------------------

struct Workload {
  const char* name;
  RunResult (*run)(std::uint64_t seed, std::uint32_t classes);
};

constexpr Workload kWorkloads[] = {
    {"stencil", run_stencil},
    {"particles", run_particles},
    {"spmv", run_spmv},
    {"collectives", run_collectives},
    {"eager", run_eager},
    {"mixed", run_mixed},
    {"dpd3d", run_dpd3d},
};
constexpr std::size_t kNumWorkloads = sizeof(kWorkloads) / sizeof(kWorkloads[0]);

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Shrinks a failing seed to a minimal perturbation class mask: masks are
// tried in increasing popcount, the first that still fails wins. Masked
// class streams draw nothing, so the surviving classes replay the decisions
// of the full run for as long as the schedules coincide.
std::uint32_t shrink_classes(const Workload& w, std::uint64_t seed) {
  static constexpr std::uint32_t kMasks[] = {
      Perturbation::kTieBreak,
      Perturbation::kLinkJitter,
      Perturbation::kSmPick,
      Perturbation::kFault,
      Perturbation::kRoute,
      Perturbation::kTieBreak | Perturbation::kLinkJitter,
      Perturbation::kTieBreak | Perturbation::kSmPick,
      Perturbation::kTieBreak | Perturbation::kFault,
      Perturbation::kLinkJitter | Perturbation::kSmPick,
      Perturbation::kLinkJitter | Perturbation::kFault,
      Perturbation::kSmPick | Perturbation::kFault,
      Perturbation::kTieBreak | Perturbation::kLinkJitter | Perturbation::kSmPick,
      Perturbation::kTieBreak | Perturbation::kLinkJitter | Perturbation::kFault,
      Perturbation::kTieBreak | Perturbation::kSmPick | Perturbation::kFault,
      Perturbation::kLinkJitter | Perturbation::kSmPick | Perturbation::kFault,
  };
  for (std::uint32_t m : kMasks) {
    if (!w.run(seed, m).errors.empty()) return m;
  }
  return Perturbation::kAllClasses;
}

std::string failure_report(const Workload& w, std::uint64_t seed) {
  const std::uint32_t minimal = shrink_classes(w, seed);
  RunResult r = w.run(seed, minimal);
  // r.errors already lists the oracle violations; keep only the counts line
  // of the observer report.
  const std::string counts = r.obs_report.substr(0, r.obs_report.find('\n') + 1);
  std::ostringstream os;
  os << "schedule fuzz failure: workload=" << w.name << " seed=" << seed
     << " minimal classes=0x" << std::hex << minimal << std::dec << "\n"
     << r.errors << "  " << counts
     << "  decisions tie-break/jitter/sm-pick/fault: " << r.decisions[0] << "/"
     << r.decisions[1] << "/" << r.decisions[2] << "/" << r.decisions[3] << "\n"
     << "  decision tail:" << r.trace_txt << "\n"
     << "  replay: DCUDA_FUZZ_WORKLOAD=" << w.name << " DCUDA_FUZZ_SEED="
     << seed << " DCUDA_FUZZ_CLASSES=0x" << std::hex << minimal << std::dec
     << " tests/schedule_fuzz_test --gtest_filter=ScheduleFuzz.ReplayFromEnv\n";
  return os.str();
}

void sweep(const Workload& w, std::uint64_t seed_base, int count) {
  std::uint64_t total_decisions = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    RunResult r = w.run(seed, Perturbation::kAllClasses);
    ASSERT_TRUE(r.errors.empty()) << failure_report(w, seed);
    total_decisions +=
        r.decisions[0] + r.decisions[1] + r.decisions[2] + r.decisions[3];
  }
  // The perturbation must actually be exercised, or the sweep proves nothing.
  EXPECT_GT(total_decisions, 0u) << w.name << " sweep drew no decisions";
}

// -- Seed sweeps (disjoint ranges, >200 distinct seeds in total) --------

TEST(ScheduleFuzz, StencilSweep) { sweep(kWorkloads[0], 0x51000, sweep_count(200)); }
TEST(ScheduleFuzz, ParticlesSweep) { sweep(kWorkloads[1], 0x52000, sweep_count(150)); }
TEST(ScheduleFuzz, SpmvSweep) { sweep(kWorkloads[2], 0x53000, sweep_count(120)); }
TEST(ScheduleFuzz, CollectivesSweep) { sweep(kWorkloads[3], 0x54000, sweep_count(200)); }
TEST(ScheduleFuzz, EagerAggSweep) { sweep(kWorkloads[4], 0x56000, sweep_count(150)); }
TEST(ScheduleFuzz, MixedSizeSweep) { sweep(kWorkloads[5], 0x57000, sweep_count(120)); }
TEST(ScheduleFuzz, Dpd3dSweep) { sweep(kWorkloads[6], 0x59000, sweep_count(120)); }

// In-tree mutation check (docs/TESTING.md): breaking the migration
// send-buffer compaction must fire the particle-conservation oracle, also
// under a perturbed lossy schedule — otherwise the dpd3d sweep's oracle is
// dead weight. A handful of seeds across the fault/backend/executor lanes
// is enough; each must report a conservation error and nothing may hang.
TEST(ScheduleFuzz, Dpd3dBrokenCompactionIsCaught) {
  for (std::uint64_t seed : {0x5a001ull, 0x5a002ull, 0x5a006ull, 0x5a00bull}) {
    RunResult r = run_dpd3d_impl(seed, Perturbation::kAllClasses,
                                 /*break_compaction=*/true);
    EXPECT_NE(r.errors.find("conservation"), std::string::npos)
        << "seed " << seed << ": mutation survived; errors were:\n" << r.errors;
  }
}

// 25-seed smoke across all workloads (the ctest `fuzz` label's quick gate).
TEST(FuzzSmoke, TwentyFiveSeedsAcrossWorkloads) {
  for (int i = 0; i < 25; ++i) {
    const Workload& w = kWorkloads[static_cast<std::size_t>(i) % kNumWorkloads];
    const std::uint64_t seed = 0x55000 + static_cast<std::uint64_t>(i);
    RunResult r = w.run(seed, Perturbation::kAllClasses);
    ASSERT_TRUE(r.errors.empty()) << failure_report(w, seed);
  }
}

// -- Reproducibility ----------------------------------------------------

TEST(ScheduleFuzz, SameSeedReplaysBitIdentically) {
  for (std::uint64_t seed : {0x61001ull, 0x61002ull, 0x61003ull}) {
    RunResult a = run_stencil(seed, Perturbation::kAllClasses);
    RunResult b = run_stencil(seed, Perturbation::kAllClasses);
    ASSERT_TRUE(a.errors.empty()) << failure_report(kWorkloads[0], seed);
    EXPECT_EQ(a.elapsed, b.elapsed) << "seed " << seed;
    for (int c = 0; c < Perturbation::kNumClasses; ++c) {
      EXPECT_EQ(a.decisions[c], b.decisions[c]) << "seed " << seed;
    }
    EXPECT_EQ(a.trace_txt, b.trace_txt) << "seed " << seed;
  }
}

TEST(ScheduleFuzz, PerturbationActuallyChangesTheSchedule) {
  Cluster canonical({.machine = fuzz_machine(2, 0, 0), .ranks_per_device = 4});
  apps::stencil::Config cfg;
  cfg.isize = 16;
  cfg.jlocal = 2;
  cfg.ksize = 3;
  cfg.iterations = 4;
  const double base = apps::stencil::run_dcuda(canonical, cfg).elapsed;
  bool any_diff = false;
  for (std::uint64_t seed : {0x62001ull, 0x62002ull, 0x62003ull}) {
    RunResult r = run_stencil(seed, Perturbation::kAllClasses);
    any_diff = any_diff || r.elapsed != base;
  }
  EXPECT_TRUE(any_diff) << "three perturbed schedules all matched canonical";
}

// -- Deadlock detection under perturbation ------------------------------

TEST(ScheduleFuzz, DeadlockIsDiagnosedNotHung) {
  for (std::uint64_t seed : {0x63001ull, 0x63002ull, 0x63003ull}) {
    Cluster c({.machine = fuzz_machine(1, seed, Perturbation::kAllClasses), .ranks_per_device = 2});
    auto mem = c.device(0).alloc<std::byte>(64);
    try {
      c.run([&](Context& ctx) -> Proc<void> {
        Window w = co_await win_create(ctx, kCommWorld, mem);
        if (ctx.world_rank == 0) {
          // Nobody sends: rank 0 hangs, rank 1 blocks in the barrier.
          co_await wait_notifications(ctx, w, kAnySource, 5, 1);
        }
        co_await barrier(ctx, kCommWorld);
        co_await win_free(ctx, w);
      });
      FAIL() << "deadlock not detected under seed " << seed;
    } catch (const sim::DeadlockError& e) {
      EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
          << e.what();
    }
  }
}

// -- One-command replay --------------------------------------------------

TEST(ScheduleFuzz, ReplayFromEnv) {
  const std::optional<std::uint64_t> seed_opt =
      bench::env_u64_opt("DCUDA_FUZZ_SEED");
  if (!seed_opt) {
    GTEST_SKIP() << "set DCUDA_FUZZ_SEED (optionally DCUDA_FUZZ_WORKLOAD, "
                    "DCUDA_FUZZ_CLASSES) to replay a fuzz case";
  }
  const std::uint64_t seed = *seed_opt;
  const std::optional<std::string> wl_s = bench::env_string("DCUDA_FUZZ_WORKLOAD");
  const std::uint32_t classes = static_cast<std::uint32_t>(
      bench::env_u64("DCUDA_FUZZ_CLASSES", Perturbation::kAllClasses));
  std::vector<const Workload*> todo;
  if (wl_s) {
    const Workload* w = find_workload(wl_s->c_str());
    ASSERT_NE(w, nullptr) << "unknown DCUDA_FUZZ_WORKLOAD " << *wl_s;
    todo.push_back(w);
  } else {
    for (const Workload& w : kWorkloads) todo.push_back(&w);
  }
  for (const Workload* w : todo) {
    RunResult r = w->run(seed, classes);
    std::printf("replay %s seed=%llu classes=0x%x elapsed=%.9g\n%s", w->name,
                static_cast<unsigned long long>(seed), classes, r.elapsed,
                r.obs_report.c_str());
    EXPECT_TRUE(r.errors.empty())
        << "workload=" << w->name << " seed=" << seed << " classes=0x"
        << std::hex << classes << std::dec << "\n"
        << r.errors << r.obs_report << "  decision tail:" << r.trace_txt;
  }
}

// -- Oracle self-tests ---------------------------------------------------
//
// The oracles must be falsifiable: each check fires on a hand-built
// violating history (the cheap half of the mutation check documented in
// docs/TESTING.md).

TEST(InvariantOracle, DetectsFabricOvertaking) {
  InvariantObserver obs;
  obs.fabric_delivered(0, 1, 1);
  obs.fabric_delivered(0, 1, 3);  // wire_seq 2 overtaken
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("fabric non-overtaking"), std::string::npos);
}

TEST(InvariantOracle, DetectsQueueCreditOverflow) {
  InvariantObserver obs;
  obs.queue_credit(5, 0, 4);  // five in flight in a four-entry ring
  EXPECT_FALSE(obs.ok());
  obs = {};
  obs.queue_credit(2, 3, 4);  // received more than was sent
  EXPECT_FALSE(obs.ok());
}

TEST(InvariantOracle, DetectsNotifiedPutOvertaking) {
  InvariantObserver obs;
  obs.notify_put_ordered(0, 1, 7, 64, /*tag=*/1);
  obs.notify_put_ordered(0, 1, 7, 64, /*tag=*/2);
  obs.notify_put_delivered(0, 1, 7, 64, /*tag=*/2);
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("overtaking"), std::string::npos);
}

TEST(InvariantOracle, DetectsCrossSizeOvertaking) {
  // The §III-B guarantee holds regardless of size: an eager-path
  // notification must not overtake an earlier rendezvous-path one on the
  // same (origin, target, window). Bytes are diagnostic, not key.
  InvariantObserver obs;
  obs.notify_put_ordered(0, 1, 7, 1 << 20, /*tag=*/1);
  obs.notify_put_ordered(0, 1, 7, 64, /*tag=*/2);
  obs.notify_put_delivered(0, 1, 7, 64, /*tag=*/2);
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("overtaking"), std::string::npos);
}

TEST(InvariantOracle, DetectsNotificationOvertakingData) {
  // The count put_notify commits while an earlier large cell put is still
  // in flight (the particles mixed-size failure mode).
  InvariantObserver obs;
  obs.data_put_issued(0, 1);            // large cell put, different window
  obs.data_put_issued(0, 1);            // the count put itself
  obs.notify_put_ordered(0, 1, 9, 4, /*tag=*/3);
  obs.data_put_landed(0, 1);            // only one of the two landed
  obs.notify_put_delivered(0, 1, 9, 4, /*tag=*/3);
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("notification overtook data"), std::string::npos);
}

TEST(InvariantOracle, DetectsLostDataPut) {
  InvariantObserver obs;
  obs.data_put_issued(0, 1);
  obs.finalize();
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("data put conservation"), std::string::npos);
  obs = {};
  obs.data_put_issued(2, 3);
  obs.data_put_landed(2, 3);
  obs.data_put_landed(2, 3);  // landed twice for one issue
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("landed without issue"), std::string::npos);
}

TEST(InvariantOracle, CleanMixedSizeDataHistoryPasses) {
  // Two data puts (one per protocol path) followed by a notified count put;
  // everything lands before the notification commits.
  InvariantObserver obs;
  obs.data_put_issued(0, 1);                       // rendezvous cell put
  obs.data_put_issued(0, 1);                       // eager count put
  obs.notify_put_ordered(0, 1, 9, 4, /*tag=*/3);
  obs.data_put_landed(0, 1);
  obs.data_put_landed(0, 1);
  obs.notify_put_delivered(0, 1, 9, 4, /*tag=*/3);
  obs.finalize();
  EXPECT_TRUE(obs.ok()) << obs.report();
}

TEST(InvariantOracle, DetectsLostNotification) {
  InvariantObserver obs;
  obs.notify_sent();
  obs.finalize();
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("conservation"), std::string::npos);
}

TEST(InvariantOracle, DetectsMatchWithoutDelivery) {
  InvariantObserver obs;
  obs.notification_matched();
  EXPECT_FALSE(obs.ok());
}

TEST(InvariantOracle, DetectsWindowUseAfterFree) {
  InvariantObserver obs;
  obs.window_created(3);
  obs.window_freed(3);
  obs.window_accessed(3);
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("after win_free"), std::string::npos);
  obs = {};
  obs.window_accessed(4);
  EXPECT_NE(obs.report().find("before win_create"), std::string::npos);
}

TEST(InvariantOracle, DetectsEagerBatchOvertaking) {
  InvariantObserver obs;
  obs.eager_batch_flushed(0, 1, 1, 2);
  obs.eager_batch_flushed(0, 1, 2, 3);
  obs.eager_batch_delivered(0, 1, 2, 3);  // batch 1 overtaken
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("eager batch overtaking"), std::string::npos);
}

TEST(InvariantOracle, DetectsEagerBatchRecordMismatch) {
  InvariantObserver obs;
  obs.eager_batch_flushed(0, 1, 1, 2);
  obs.eager_batch_delivered(0, 1, 1, 3);  // one record too many
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("record count mismatch"), std::string::npos);
}

TEST(InvariantOracle, DetectsEagerBatchDeliveryWithoutFlush) {
  InvariantObserver obs;
  obs.eager_batch_delivered(0, 1, 1, 1);
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("delivered without flush"), std::string::npos);
}

TEST(InvariantOracle, DetectsLostEagerBatch) {
  InvariantObserver obs;
  obs.eager_batch_flushed(0, 1, 1, 4);
  obs.finalize();
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("eager batch conservation"), std::string::npos);
}

TEST(InvariantOracle, CleanEagerHistoryPasses) {
  InvariantObserver obs;
  obs.eager_batch_flushed(0, 1, 1, 2);
  obs.eager_batch_delivered(0, 1, 1, 2);
  obs.eager_batch_flushed(0, 1, 2, 1);
  obs.eager_batch_flushed(1, 0, 1, 3);  // independent pair
  obs.eager_batch_delivered(1, 0, 1, 3);
  obs.eager_batch_delivered(0, 1, 2, 1);
  obs.finalize();
  EXPECT_TRUE(obs.ok()) << obs.report();
}

TEST(InvariantOracle, DetectsBarrierRoundDisagreement) {
  InvariantObserver obs;
  obs.barrier_enter(/*comm=*/-1, /*rank=*/0, /*participants=*/2);
  obs.barrier_leave(-1, 0);  // rank 1 never entered round 1
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("barrier round agreement"), std::string::npos);
}

TEST(InvariantOracle, CleanHistoryPasses) {
  InvariantObserver obs;
  obs.fabric_delivered(0, 1, 1);
  obs.fabric_delivered(0, 1, 2);
  obs.queue_credit(1, 0, 4);
  obs.queue_credit(1, 1, 4);
  obs.window_created(3);
  obs.window_accessed(3);
  obs.notify_sent();
  obs.notify_put_ordered(0, 1, 3, 64, 5);
  obs.notify_put_delivered(0, 1, 3, 64, 5);
  obs.notification_delivered();
  obs.notification_matched();
  obs.window_freed(3);
  obs.barrier_enter(-1, 0, 2);
  obs.barrier_enter(-1, 1, 2);
  obs.barrier_leave(-1, 0);
  obs.barrier_leave(-1, 1);
  obs.finalize();
  EXPECT_TRUE(obs.ok()) << obs.report();
  EXPECT_GT(obs.checks_performed(), 0u);
}

}  // namespace
}  // namespace dcuda
