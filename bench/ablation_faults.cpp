// Ablation: notified-put bandwidth over a lossy fabric as a function of the
// packet drop rate (0 / 0.1% / 1% / 5%), Fig. 6 methodology (distributed
// ping-pong between two nodes). Shows the go-back-N recovery protocol
// degrading gracefully: each rung reports the achieved bandwidth next to
// the recovery effort (retransmissions, timer expiries, suppressed
// duplicates) that bought it. The lossless rung runs the perfectly
// reliable wire (net/fault.h disabled) and must match fig6.

#include "bench/common.h"
#include "dcuda/dcuda.h"
#include "net/fabric.h"

namespace dcuda {
namespace {

struct LossyPoint {
  double bandwidth_mbs = 0.0;
  net::Fabric::FaultStats stats;
};

// Fig. 6 distributed ping-pong with a fault profile: drop_prob plus a light
// mix of the other classes scaled to it, seeded so every rung replays.
LossyPoint pingpong(std::size_t bytes, int iters, double drop) {
  auto run_once = [&](int iterations, net::Fabric::FaultStats* stats) {
    sim::MachineConfig m = bench::machine(2);
    m.fault.drop_prob = drop;
    m.fault.dup_prob = drop / 2.0;
    m.fault.delay_prob = drop / 2.0;
    Cluster c({.machine = m, .ranks_per_device = 1});
    auto m0 = c.device(0).alloc<std::byte>(bytes + 1);
    auto m1 = c.device(1).alloc<std::byte>(bytes + 1);
    c.run([&, iterations](Context& ctx) -> sim::Proc<void> {
      auto mine = ctx.world_rank == 0 ? m0 : m1;
      const int peer = 1 - ctx.world_rank;
      Window w = co_await win_create(ctx, kCommWorld, mine);
      for (int i = 0; i < iterations; ++i) {
        if (ctx.world_rank == 0) {
          co_await put_notify(ctx, w, peer, 0, bytes, mine.data(), 0);
          co_await wait_notifications(ctx, w, peer, 0, 1);
        } else {
          co_await wait_notifications(ctx, w, peer, 0, 1);
          co_await put_notify(ctx, w, peer, 0, bytes, mine.data(), 0);
        }
      }
      co_await win_free(ctx, w);
    });
    if (stats != nullptr) *stats = c.fabric().fault_stats();
    return c.sim().now();
  };
  LossyPoint r;
  const double setup = run_once(0, nullptr);
  const double total = run_once(iters, &r.stats) - setup;
  r.bandwidth_mbs = static_cast<double>(bytes) / (total / (2.0 * iters)) / sim::kMBs;
  return r;
}

}  // namespace
}  // namespace dcuda

int main(int argc, char** argv) {
  using namespace dcuda;
  bench::trace_sink().parse_args(argc, argv);
  bench::header("Ablation: lossy fabric",
                "distributed put-bandwidth vs packet drop rate (go-back-N recovery)");
  const int iters = bench::iterations(50);
  constexpr std::size_t kBytes = 64 * 1024;  // bandwidth-bound fig6 point

  bench::row({"drop_rate", "bandwidth_MB/s", "vs_lossless", "retransmits",
              "timeouts", "dup_suppressed", "acks_lost"});
  double base = 0.0;
  for (double drop : {0.0, 0.001, 0.01, 0.05}) {
    const LossyPoint p = pingpong(kBytes, iters, drop);
    if (drop == 0.0) base = p.bandwidth_mbs;
    bench::row({bench::fmt(drop, "%.3f"), bench::fmt(p.bandwidth_mbs, "%.1f"),
                bench::fmt(base > 0.0 ? p.bandwidth_mbs / base : 1.0, "%.2f"),
                bench::fmt(static_cast<double>(p.stats.retransmits), "%.0f"),
                bench::fmt(static_cast<double>(p.stats.timeouts), "%.0f"),
                bench::fmt(static_cast<double>(p.stats.dup_suppressed), "%.0f"),
                bench::fmt(static_cast<double>(p.stats.acks_lost), "%.0f")});
  }
  bench::trace_sink().finish();
  return 0;
}
