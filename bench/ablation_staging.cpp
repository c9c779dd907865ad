// Ablation: host-staged vs direct (GPUDirect-read) device-to-device
// transfers across message sizes — the mechanism behind the CUDA-aware MPI
// staging threshold (paper §IV-C, stencil and SpMV discussions). Direct
// transfers win below the threshold (no staging startup); staged transfers
// win for large messages (Kepler peer reads are capped well below the
// network rate).

#include "bench/common.h"
#include "mpi/mpi.h"

namespace dcuda {
namespace {

double transfer_ms(std::size_t bytes, bool force_direct) {
  sim::MachineConfig mc = bench::machine(2);
  if (force_direct) mc.mpi.device_staging_threshold = 1ull << 40;
  Cluster c({.machine = mc, .ranks_per_device = 1});
  auto src = c.device(0).alloc<std::byte>(bytes);
  auto dst = c.device(1).alloc<std::byte>(bytes);
  auto& sim = c.sim();
  auto tx = [&]() -> sim::Proc<void> {
    co_await c.mpi(0).send(1, 0, c.device(0).ref(src));
  };
  auto rx = [&]() -> sim::Proc<void> {
    co_await c.mpi(1).recv(0, 0, c.device(1).ref(dst));
  };
  // Each process drives its own node's MPI endpoint, so it runs on that
  // node's shard (as Cluster::run places its processes).
  sim.spawn_on(sim.shard_for(0), tx(), "tx");
  sim.spawn_on(sim.shard_for(1), rx(), "rx");
  sim.run();
  return sim::to_millis(sim.now());
}

}  // namespace
}  // namespace dcuda

int main() {
  using namespace dcuda;
  bench::header("Ablation", "host-staged vs direct device-to-device transfers");
  bench::row({"size_kb", "staged_ms", "direct_ms", "staged_MB/s", "direct_MB/s"});
  for (std::size_t kb : {4, 16, 32, 64, 128, 256, 512, 1024, 4096}) {
    const double st = transfer_ms(kb * 1024, false);
    const double di = transfer_ms(kb * 1024, true);
    bench::row({bench::fmt(static_cast<double>(kb), "%.0f"), bench::fmt(st), bench::fmt(di),
                bench::fmt(static_cast<double>(kb) / 1024.0 / (st / 1e3), "%.0f"),
                bench::fmt(static_cast<double>(kb) / 1024.0 / (di / 1e3), "%.0f")});
  }
  return 0;
}
