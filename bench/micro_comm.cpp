// Micro-benchmark of the small-message notified-put protocol: message rate
// with the eager/aggregated fast path (sim::RmaConfig) on versus off.
//
// Workload: every rank on node 0 streams `iters` notified puts of a fixed
// size to its peer rank on node 1; peers match every notification. Several
// origin ranks run concurrently so the per-rank device issue cost is not
// the shared bottleneck — the host pipeline and the fabric are, which is
// where the eager path saves work (one aggregated packet instead of a
// meta+payload rendezvous pair per put, one batched notification commit
// per packet instead of one enqueue per put).
//
// The rate is messages per second of *simulated* time; setup cost is
// removed by subtracting a zero-iteration run (the fig6 methodology).
// Output is a single JSON object on stdout (the micro_comm golden case);
// human-readable rates go to stderr. The acceptance bar — >= 1.5x rate for
// packets <= 512 B, "min_small_speedup" — fails the run when crossed.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "dcuda/dcuda.h"

namespace dcuda {
namespace {

constexpr int kNodes = 2;
constexpr int kOrigins = 4;   // ranks per device; node 0 sends, node 1 receives
constexpr int kSlots = 16;    // recv-window slots reused round-robin
constexpr std::size_t kEagerThreshold = 512;
constexpr int kMaxBatch = 8;

struct Series {
  std::size_t bytes = 0;
  double rate_off = 0.0;  // msgs / simulated second
  double rate_on = 0.0;
  double speedup() const { return rate_off > 0.0 ? rate_on / rate_off : 0.0; }
};

double stream_once(std::size_t bytes, int iters, bool eager) {
  sim::MachineConfig m = bench::machine(kNodes);
  if (eager) {
    m.rma.eager_threshold = kEagerThreshold;
    m.rma.max_batch = kMaxBatch;
  }
  Cluster c({.machine = m, .ranks_per_device = kOrigins});
  std::vector<std::span<std::byte>> win(static_cast<size_t>(kNodes * kOrigins));
  for (int g = 0; g < kNodes * kOrigins; ++g) {
    win[static_cast<size_t>(g)] =
        c.device(g / kOrigins).alloc<std::byte>(kSlots * (bytes + 1) + 1);
  }
  c.run([&, iters](Context& ctx) -> sim::Proc<void> {
    const int g = ctx.world_rank;
    Window w = co_await win_create(ctx, kCommWorld, win[static_cast<size_t>(g)]);
    if (g < kOrigins) {  // node 0: origin
      const int peer = g + kOrigins;
      for (int i = 0; i < iters; ++i) {
        const std::size_t slot = static_cast<size_t>(i % kSlots) * (bytes + 1);
        co_await put_notify(ctx, w, peer, slot, bytes,
                            win[static_cast<size_t>(g)].data(), /*tag=*/0);
      }
      co_await flush(ctx);
    } else {  // node 1: target
      const int peer = g - kOrigins;
      co_await wait_notifications(ctx, w, peer, 0, iters);
    }
    co_await barrier(ctx, kCommWorld);
    co_await win_free(ctx, w);
  });
  return c.sim().now();
}

Series measure(std::size_t bytes, int iters) {
  Series s;
  s.bytes = bytes;
  const double off = stream_once(bytes, iters, false) - stream_once(bytes, 0, false);
  const double on = stream_once(bytes, iters, true) - stream_once(bytes, 0, true);
  const double msgs = static_cast<double>(kOrigins) * iters;
  s.rate_off = msgs / off;
  s.rate_on = msgs / on;
  std::fprintf(stderr,
               "%6zu B   off %12.0f msg/s   on %12.0f msg/s   speedup %5.2fx\n",
               bytes, s.rate_off, s.rate_on, s.speedup());
  return s;
}

}  // namespace
}  // namespace dcuda

int main() {
  using namespace dcuda;
  // Floor of 32 puts per rank: the rate is a steady-state metric, and very
  // short streams are dominated by the one aggregation-window wait on the
  // final partial batch rather than by the per-message protocol cost.
  const int iters = std::max(32, bench::iterations(64));
  std::fprintf(stderr, "# micro_comm: notified-put message rate, eager+agg on vs off\n");
  std::fprintf(stderr, "# %d origin ranks, %d puts each, threshold %zu B, batch %d\n",
               kOrigins, iters, kEagerThreshold, kMaxBatch);

  std::vector<Series> series;
  // <= 512 B: the eager sizes the acceptance bar covers; 2048 B stays on the
  // rendezvous path in both runs (parity reference).
  for (std::size_t bytes : {std::size_t{64}, std::size_t{128}, std::size_t{256},
                            std::size_t{512}, std::size_t{2048}}) {
    series.push_back(measure(bytes, iters));
  }

  double min_small = -1.0;
  for (const Series& s : series) {
    if (s.bytes <= kEagerThreshold) {
      if (min_small < 0.0 || s.speedup() < min_small) min_small = s.speedup();
    }
  }

  std::printf("{\n");
  std::printf("  \"schema\": \"dcuda-bench-comm-v1\",\n");
  std::printf("  \"config\": {\"nodes\": %d, \"origin_ranks\": %d, \"puts_per_rank\": %d, "
              "\"eager_threshold\": %zu, \"max_batch\": %d},\n",
              kNodes, kOrigins, iters, kEagerThreshold, kMaxBatch);
  std::printf("  \"sizes\": [\n");
  for (size_t i = 0; i < series.size(); ++i) {
    const Series& s = series[i];
    std::printf("    {\"bytes\": %zu, \"rate_off_msgs_per_s\": %.0f, "
                "\"rate_on_msgs_per_s\": %.0f, \"speedup\": %.3f}%s\n",
                s.bytes, s.rate_off, s.rate_on, s.speedup(),
                i + 1 < series.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"min_small_speedup\": %.3f\n}\n", min_small);
  bench::require(min_small >= 1.5, "small-message eager speedup " +
                                       bench::fmt(min_small) + "x < 1.5x");
  return 0;
}
