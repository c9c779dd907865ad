// Backend comparison: the paper's host event loop (§III-A) versus the
// device-initiated backend (§III-D outlook; docs/BACKENDS.md). Under
// RuntimeBackend::kHostLoop even device-local notifications loop through
// the host to keep the ordering logic in one place; kDeviceInitiated
// delivers them on the device's notification board and rings a device→NIC
// doorbell for remote puts — the improvement the paper's "Notification
// System" discussion anticipates from hardware support.
//
// Output: the figure table on stdout (the ablation_local_notify golden
// case). A local speedup below 3x fails the run.

#include "bench/common.h"
#include "dcuda/dcuda.h"

namespace dcuda {
namespace {

// Half-roundtrip notified-put latency between two ranks: same-device when
// `nodes` is 1 (the latency hardware notification support attacks), across
// the fabric when 2 (doorbell'd puts, board delivery at the target).
double pingpong_latency_us(sim::RuntimeBackend backend, int nodes, int iters) {
  sim::MachineConfig mc = bench::machine(nodes);
  mc.backend = backend;
  const int rpd = nodes == 1 ? 2 : 1;
  auto run = [&](int n) {
    Cluster c({.machine = mc, .ranks_per_device = rpd});
    std::vector<std::span<std::byte>> mem;
    for (int d = 0; d < nodes; ++d) mem.push_back(c.device(d).alloc<std::byte>(256));
    c.run([&, n](Context& ctx) -> sim::Proc<void> {
      Window w = co_await win_create(
          ctx, kCommWorld, mem[static_cast<size_t>(ctx.world_rank / rpd)]);
      for (int i = 0; i < n; ++i) {
        if (ctx.world_rank == 0) {
          co_await put_notify(ctx, w, 1, 0, 0, nullptr, 0);
          co_await wait_notifications(ctx, w, 1, 0, 1);
        } else {
          co_await wait_notifications(ctx, w, 0, 0, 1);
          co_await put_notify(ctx, w, 0, 0, 0, nullptr, 0);
        }
      }
      co_await win_free(ctx, w);
    });
    return c.sim().now();
  };
  const double setup = run(0);
  return sim::to_micros((run(iters) - setup) / (2.0 * iters));
}

}  // namespace
}  // namespace dcuda

int main() {
  using namespace dcuda;
  const int iters = bench::iterations(50);
  const double host_local =
      pingpong_latency_us(sim::RuntimeBackend::kHostLoop, 1, iters);
  const double dev_local =
      pingpong_latency_us(sim::RuntimeBackend::kDeviceInitiated, 1, iters);
  const double host_remote =
      pingpong_latency_us(sim::RuntimeBackend::kHostLoop, 2, iters);
  const double dev_remote =
      pingpong_latency_us(sim::RuntimeBackend::kDeviceInitiated, 2, iters);
  const double speedup = host_local / dev_local;

  bench::header("Ablation",
                "runtime backends: host event loop vs device-initiated");
  bench::row({"backend", "local_halfroundtrip_us", "remote_halfroundtrip_us"});
  bench::row({"host_loop (paper SIII-A)", bench::fmt(host_local, "%.2f"),
              bench::fmt(host_remote, "%.2f")});
  bench::row({"device_initiated (paper SIII-D)", bench::fmt(dev_local, "%.2f"),
              bench::fmt(dev_remote, "%.2f")});
  std::printf("# notified-put speedup from hardware support: %.1fx local, "
              "%.1fx remote\n", speedup, host_remote / dev_remote);
  bench::require(speedup >= 3.0, "device-initiated local notified-put speedup " +
                                     bench::fmt(speedup) + "x < 3x");
  return 0;
}
