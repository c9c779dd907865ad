#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "apps/stencil.h"
#include "cluster/cluster.h"
#include "dcuda/dcuda.h"

namespace perfbench {

namespace {

using dcuda::Cluster;
using dcuda::ClusterSpec;
namespace sim = dcuda::sim;

// The paper machine (sim/config.h defaults), every knob that selects a
// model path written out so that no later default change or environment
// variable moves a sim-clock metric: host-loop runtime, eager path off, no
// faults, flat topology with one rail, canonical schedule.
sim::MachineConfig paper_machine(int nodes, int threads) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  m.shards = 0;
  m.threads = threads;
  m.backend = sim::RuntimeBackend::kHostLoop;
  m.rma.eager_threshold = 0;
  m.fault = {};
  m.net.topo = {};
  m.perturb_seed = 0;
  return m;
}

int threads_or(const Options& opt, int pinned) {
  return opt.threads > 0 ? opt.threads : pinned;
}

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// -- stencil_paper ------------------------------------------------------------

struct StencilShape {
  int nodes;
  int ranks_per_device;
  int isize, jlocal, ksize;
  int iterations;
};

void stencil_phase(const Options& opt, Record& rec, SpanLog& log) {
  // Fig. 10's 8-node point: default patch, 208 blocks per device.
  const StencilShape sh = opt.tiny ? StencilShape{2, 16, 128, 2, 16, 2}
                                   : StencilShape{8, 208, 128, 2, 16, 4};
  dcuda::apps::stencil::Config cfg;
  cfg.isize = sh.isize;
  cfg.jlocal = sh.jlocal;
  cfg.ksize = sh.ksize;
  cfg.iterations = sh.iterations;
  rec.set("iterations", cfg.iterations);

  if (opt.phase == "reference") {
    double checksum = 0.0;
    {
      auto span = log.host("apps.reference_checksum");
      checksum = dcuda::apps::stencil::reference_checksum(cfg, sh.nodes,
                                                          sh.ranks_per_device);
    }
    rec.set("checksum", checksum);
    rec.set("apps.reference_s", log.last("apps.reference_checksum"));
    return;
  }
  const bool dcuda_run = opt.phase == "dcuda";
  if (!dcuda_run && opt.phase != "mpi" && opt.phase != "halo") {
    throw std::invalid_argument("unknown stencil phase: " + opt.phase);
  }
  if (opt.phase == "halo") cfg.compute = false;  // Fig. 10's halo series
  const int threads = threads_or(opt, 1);
  rec.set("threads", threads);

  std::optional<Cluster> c;
  {
    auto span = log.host("cluster.construct");
    c.emplace(ClusterSpec{.machine = paper_machine(sh.nodes, threads),
                          .ranks_per_device = sh.ranks_per_device});
  }
  if (opt.trace) c->tracer().enable();
  const char* run_span = dcuda_run ? "apps.run_dcuda" : "baseline.run_mpi_cuda";
  dcuda::apps::stencil::Result r;
  {
    auto span = log.host(run_span);
    r = dcuda_run ? dcuda::apps::stencil::run_dcuda(*c, cfg)
                  : dcuda::apps::stencil::run_mpi_cuda(*c, cfg);
  }
  rec.set("setup_s", log.last("cluster.construct"));
  rec.set("cluster.construct_s", log.last("cluster.construct"));
  rec.set("wall_s", log.last(run_span));
  rec.set("checksum", r.checksum);
  rec.set("sim_ms_per_iter", sim::to_millis(r.elapsed) / cfg.iterations);
  rec.set("cluster.makespan_ms", sim::to_millis(c->sim().now()));
  engine_metrics(c->sim(), rec);
  if (opt.trace) tracer_metrics(c->tracer(), rec, log);
}

// -- rma_pingpong -------------------------------------------------------------
//
// Rank pairs ping-pong notified accesses. On every node the first half of
// the ranks pair up on their own device (local: the notification loops
// through the host runtime); the second half pair with the same rank slot
// on the neighbouring node (remote: across the fabric). Round k moves 64 kB
// when k % 8 == 7 and 256 B otherwise; a seeded shuffle makes exactly one
// round in four a get_notify instead of a put ping-pong.

constexpr std::size_t kSmall = 256;
constexpr std::size_t kLarge = 64 * 1024;
// Window layout per rank: [in | out | get source], kLarge bytes each.
constexpr std::size_t kIn = 0, kOut = kLarge, kGetSrc = 2 * kLarge;
constexpr int kTagPing = 1, kTagPong = 2, kTagGet = 3;

struct RmaShape {
  int nodes;
  int ranks_per_device;
  int rounds;  // per pair, a multiple of 8
};

struct Peer {
  int partner = -1;
  bool pinger = false;
  bool remote = false;
  int pair = -1;  // the pinger's world rank
};

Peer peer_of(int rank, int rpd) {
  const int node = rank / rpd, slot = rank % rpd;
  Peer p;
  p.remote = slot >= rpd / 2;
  p.partner = p.remote ? (node ^ 1) * rpd + slot : node * rpd + (slot ^ 1);
  p.pinger = rank < p.partner;
  p.pair = std::min(rank, p.partner);
  return p;
}

struct Access {
  bool get = false;
  std::size_t bytes = kSmall;
};

// The seeded access order of one pair.
std::vector<Access> plan_for(std::uint64_t seed, int pair, int rounds) {
  std::vector<Access> plan(static_cast<std::size_t>(rounds));
  for (int k = 0; k < rounds; ++k) {
    plan[static_cast<std::size_t>(k)].bytes = k % 8 == 7 ? kLarge : kSmall;
    plan[static_cast<std::size_t>(k)].get = k < rounds / 4;
  }
  // Fisher-Yates over the get flags only: sizes keep their 7:1 cycle.
  std::uint64_t state = mix(seed ^ mix(static_cast<std::uint64_t>(pair)));
  for (int k = rounds - 1; k > 0; --k) {
    state = mix(state);
    const int j = static_cast<int>(state % static_cast<std::uint64_t>(k + 1));
    std::swap(plan[static_cast<std::size_t>(k)].get,
              plan[static_cast<std::size_t>(j)].get);
  }
  return plan;
}

std::uint64_t stamp_of(std::uint64_t seed, int pair, int round, int dir) {
  return mix(seed ^ mix((static_cast<std::uint64_t>(pair) << 32) ^
                        (static_cast<std::uint64_t>(round) << 2) ^
                        static_cast<std::uint64_t>(dir)));
}

void fill(std::byte* p, std::size_t bytes, std::uint64_t stamp) {
  for (std::size_t i = 0; i < bytes / 8; ++i) {
    const std::uint64_t w = stamp + i;
    std::memcpy(p + 8 * i, &w, 8);
  }
}

bool verify(const std::byte* p, std::size_t bytes, std::uint64_t stamp) {
  for (std::size_t i = 0; i < bytes / 8; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + 8 * i, 8);
    if (w != stamp + i) return false;
  }
  return true;
}

// What one rank measured; written only by that rank's coroutine, so ranks
// on different engine threads never share one.
struct RankLog {
  std::array<std::vector<double>, 2> small_lat_us;  // [remote]
  std::vector<double> small_get_us;
  std::vector<Span> spans;  // sim clock; parent -1 = the rank's own span
  double begin = 0.0, end = 0.0;
  double bytes = 0.0;
  int attempted = 0, failed = 0;
};

void rma_phase(const Options& opt, Record& rec, SpanLog& log) {
  if (opt.phase != "run") throw std::invalid_argument("unknown rma phase: " + opt.phase);
  const RmaShape sh = opt.tiny ? RmaShape{2, 4, 16} : RmaShape{8, 16, 1024};
  const int world = sh.nodes * sh.ranks_per_device;
  const int threads = threads_or(opt, 1);
  rec.set("threads", threads);
  rec.set("rounds", sh.rounds);

  sim::MachineConfig m = paper_machine(sh.nodes, threads);
  if (opt.device_backend) m.backend = sim::RuntimeBackend::kDeviceInitiated;
  std::optional<Cluster> c;
  {
    auto span = log.host("cluster.construct");
    c.emplace(ClusterSpec{.machine = m, .ranks_per_device = sh.ranks_per_device});
  }
  if (opt.trace) c->tracer().enable();

  std::vector<std::span<std::byte>> mem(static_cast<std::size_t>(world));
  std::vector<std::vector<Access>> plans(static_cast<std::size_t>(world));
  std::vector<RankLog> logs(static_cast<std::size_t>(world));
  {
    auto span = log.host("rma.inputs");
    for (int g = 0; g < world; ++g) {
      auto& w = mem[static_cast<std::size_t>(g)];
      w = c->device(g / sh.ranks_per_device).alloc<std::byte>(3 * kLarge);
      const Peer p = peer_of(g, sh.ranks_per_device);
      fill(w.data() + kGetSrc, kLarge, stamp_of(opt.seed, p.pair, -1, p.pinger));
      if (p.pinger) plans[static_cast<std::size_t>(g)] = plan_for(opt.seed, p.pair, sh.rounds);
    }
  }

  const bool trace = opt.trace;
  const std::uint64_t seed = opt.seed;
  const int rpd = sh.ranks_per_device;
  const int rounds = sh.rounds;
  sim::Dur elapsed = 0.0;
  {
    auto span = log.host("rma.run");
    elapsed = c->run([&](dcuda::Context& ctx) -> sim::Proc<void> {
      const int g = ctx.world_rank;
      const Peer p = peer_of(g, rpd);
      RankLog& rl = logs[static_cast<std::size_t>(g)];
      std::byte* base = mem[static_cast<std::size_t>(g)].data();
      const std::vector<Access>& plan =
          plans[static_cast<std::size_t>(p.pair)];
      rl.begin = ctx.sim().now();
      dcuda::Window w = co_await dcuda::win_create(ctx, dcuda::kCommWorld, base, 3 * kLarge);
      // Timed call: records a sim-clock span in traced runs.
      double t0 = 0.0;
      const auto mark = [&] { t0 = ctx.sim().now(); };
      const auto done = [&](const char* name) {
        if (trace) rl.spans.push_back(Span{name, t0, ctx.sim().now(), -1, Clock::kSim});
      };
      const auto check = [&](const std::byte* p_in, std::size_t bytes, std::uint64_t stamp) {
        ++rl.attempted;
        if (!verify(p_in, bytes, stamp)) ++rl.failed;
        rl.bytes += static_cast<double>(bytes);
      };
      for (int k = 0; k < rounds; ++k) {
        const Access a = plan[static_cast<std::size_t>(k)];
        if (a.get) {
          if (!p.pinger) continue;
          std::memset(base + kIn, 0, a.bytes);
          const double start = ctx.sim().now();
          mark();
          co_await dcuda::get_notify(ctx, w, p.partner, kGetSrc, a.bytes, base + kIn, kTagGet);
          done("dcuda.get_notify");
          mark();
          co_await dcuda::wait_notifications(ctx, w, p.partner, kTagGet, 1);
          done("dcuda.wait_notifications");
          if (a.bytes == kSmall) {
            rl.small_get_us.push_back(sim::to_micros(ctx.sim().now() - start));
          }
          check(base + kIn, a.bytes, stamp_of(seed, p.pair, -1, 0));
          continue;
        }
        const int send_tag = p.pinger ? kTagPing : kTagPong;
        const int recv_tag = p.pinger ? kTagPong : kTagPing;
        const auto send = [&]() -> sim::Proc<void> {
          fill(base + kOut, a.bytes, stamp_of(seed, p.pair, k, p.pinger ? 0 : 1));
          mark();
          co_await dcuda::put_notify(ctx, w, p.partner, kIn, a.bytes, base + kOut, send_tag);
          done("dcuda.put_notify");
        };
        const auto receive = [&]() -> sim::Proc<void> {
          mark();
          co_await dcuda::wait_notifications(ctx, w, p.partner, recv_tag, 1);
          done("dcuda.wait_notifications");
          check(base + kIn, a.bytes, stamp_of(seed, p.pair, k, p.pinger ? 1 : 0));
          std::memset(base + kIn, 0, a.bytes);
        };
        if (p.pinger) {
          const double start = ctx.sim().now();
          co_await send();
          co_await receive();
          if (a.bytes == kSmall) {
            rl.small_lat_us[p.remote].push_back(
                sim::to_micros(ctx.sim().now() - start) / 2.0);
          }
        } else {
          co_await receive();
          co_await send();
        }
      }
      co_await dcuda::win_free(ctx, w);
      rl.end = ctx.sim().now();
    });
  }
  rec.set("setup_s", log.last("cluster.construct") + log.last("rma.inputs"));
  rec.set("cluster.construct_s", log.last("cluster.construct"));
  rec.set("wall_s", log.last("rma.run"));

  std::array<std::vector<double>, 2> lat;
  std::vector<double> get_us;
  double bytes = 0.0;
  int attempted = 0, failed = 0;
  for (RankLog& rl : logs) {
    for (int r = 0; r < 2; ++r) {
      lat[r].insert(lat[r].end(), rl.small_lat_us[r].begin(), rl.small_lat_us[r].end());
    }
    get_us.insert(get_us.end(), rl.small_get_us.begin(), rl.small_get_us.end());
    bytes += rl.bytes;
    attempted += rl.attempted;
    failed += rl.failed;
    if (trace) {
      const int root = log.add_sim("rank", rl.begin, rl.end, -1);
      for (Span& s : rl.spans) log.add_sim(std::move(s.name), s.start, s.end, root);
    }
  }
  rec.set("attempted", attempted);
  rec.set("failed", failed);
  rec.percentiles("rma_local_lat_us", std::move(lat[0]), {{"p50", 0.5}, {"p99", 0.99}});
  rec.percentiles("rma_remote_lat_us", std::move(lat[1]), {{"p50", 0.5}, {"p99", 0.99}});
  rec.percentiles("dcuda.get_lat_us", std::move(get_us), {{"p50", 0.5}});
  rec.set("rma_gbs", bytes / elapsed / 1e9);
  rec.set("cluster.makespan_ms", sim::to_millis(c->sim().now()));
  engine_metrics(c->sim(), rec);
  if (opt.trace) tracer_metrics(c->tracer(), rec, log);
}

}  // namespace

void run_phase(const Options& opt, Record& rec, SpanLog& log) {
  if (opt.workload == "stencil_paper") {
    stencil_phase(opt, rec, log);
  } else if (opt.workload == "rma_pingpong") {
    rma_phase(opt, rec, log);
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
}

}  // namespace perfbench
