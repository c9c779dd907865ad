// Figure 6: put-bandwidth of shared and distributed memory ranks as a
// function of the packet size, measured with a notified-put ping-pong.
// Also reports the empty-packet latencies quoted in §IV-B (paper: 7.8 us
// shared, 9.2 us distributed; bandwidth plateaus ~1.06 GB/s shared and
// ~5.3 GB/s distributed).

#include "bench/common.h"
#include "dcuda/dcuda.h"

namespace dcuda {
namespace {

struct PingPong {
  double latency_us = 0.0;
  double bandwidth_mbs = 0.0;
};

// Ping-pong between rank 0 and the last rank: same device when nodes == 1,
// network otherwise. Setup cost is removed by subtracting a zero-iteration
// run (the paper's methodology).
PingPong pingpong(int nodes, std::size_t bytes, int iters,
                  const char* trace_label = nullptr) {
  auto run_once = [&](int iterations, bool trace) {
    Cluster c({.machine = bench::machine(nodes),
               .ranks_per_device = nodes == 1 ? 2 : 1});
    if (trace) c.tracer().enable();
    auto m0 = c.device(0).alloc<std::byte>(bytes + 1);
    auto m1 = c.device(nodes - 1).alloc<std::byte>(bytes + 1);
    c.run([&, iterations](Context& ctx) -> sim::Proc<void> {
      auto mine = ctx.world_rank == 0 ? m0 : m1;
      const int peer = ctx.world_size - 1 - ctx.world_rank;
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
    if (c.tracer().enabled()) bench::trace_sink().add(trace_label, c.tracer());
    return c.sim().now();
  };
  const bool trace = trace_label != nullptr && bench::trace_sink().enabled();
  const double setup = run_once(0, false);
  const double total = run_once(iters, trace) - setup;
  PingPong r;
  r.latency_us = sim::to_micros(total / (2.0 * iters));
  r.bandwidth_mbs = static_cast<double>(bytes) / (total / (2.0 * iters)) / sim::kMBs;
  return r;
}

}  // namespace
}  // namespace dcuda

int main(int argc, char** argv) {
  using namespace dcuda;
  bench::trace_sink().parse_args(argc, argv);
  bench::header("Figure 6", "put-bandwidth of shared and distributed memory ranks");
  const int iters = bench::iterations(50);

  const PingPong lat_sh = pingpong(1, 0, iters);
  const PingPong lat_di = pingpong(2, 0, iters);
  std::printf("# empty-packet latency: shared %.1f us (paper 7.8), distributed %.1f us (paper 9.2)\n",
              lat_sh.latency_us, lat_di.latency_us);

  bench::row({"packet_kb", "distributed_MB/s", "shared_MB/s"});
  for (std::size_t kb : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}) {
    // Trace the 1 MB point — deep in the bandwidth plateau for both series.
    const bool rep = kb == 1024;
    const PingPong di =
        pingpong(2, kb * 1024, iters, rep ? "distributed 1MB" : nullptr);
    const PingPong sh = pingpong(1, kb * 1024, iters, rep ? "shared 1MB" : nullptr);
    bench::row({bench::fmt(static_cast<double>(kb), "%.0f"),
                bench::fmt(di.bandwidth_mbs, "%.1f"), bench::fmt(sh.bandwidth_mbs, "%.1f")});
  }
  bench::trace_sink().finish();
  return 0;
}
