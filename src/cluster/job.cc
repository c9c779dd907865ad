#include "cluster/job.h"

#include <cassert>
#include <cstddef>

#include "dcuda/dcuda.h"
#include "gpu/device.h"
#include "net/fabric.h"

namespace dcuda::cluster {

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Deterministic per-(job, rank, iteration) compute phase in [0.5, 1.5) x
// base — enough skew that concurrent jobs interleave differently without
// making any schedule time random.
double jitter(const JobSpec& spec, int rank, int iter, double base) {
  std::uint64_t x = spec.seed ^ (static_cast<std::uint64_t>(rank) << 32) ^
                    static_cast<std::uint64_t>(iter);
  const double u =
      static_cast<double>(splitmix(x) >> 11) * 0x1.0p-53;  // [0, 1)
  return base * (0.5 + u);
}

constexpr double kComputePhase = 2e-5;  // seconds per iteration, pre-jitter

// Halo exchange: every rank swaps one message with rank - 1 and rank + 1
// per iteration (the paper's stencil shape, §IV-C).
sim::Proc<void> stencil_body(Context& ctx, JobSpec spec) {
  const int r = ctx.world_rank;
  const int size = ctx.world_size;
  std::vector<std::byte> halo(2 * spec.bytes_per_msg);
  std::vector<std::byte> local(spec.bytes_per_msg);
  Window win = co_await win_create(ctx, Comm::kWorld, halo.data(), halo.size());
  const bool has_left = r > 0;
  const bool has_right = r + 1 < size;
  for (int it = 0; it < spec.iterations; ++it) {
    co_await ctx.charge_compute_time(jitter(spec, r, it, kComputePhase));
    if (has_left) {
      // Lands in the left neighbor's "right halo" half.
      co_await put_notify(ctx, win, r - 1, spec.bytes_per_msg,
                          spec.bytes_per_msg, local.data(), it);
    }
    if (has_right) {
      co_await put_notify(ctx, win, r + 1, 0, spec.bytes_per_msg, local.data(),
                          it);
    }
    const int expected = (has_left ? 1 : 0) + (has_right ? 1 : 0);
    if (expected > 0) {
      co_await wait_notifications(ctx, win, kAnySource, it, expected);
    }
    co_await flush(ctx);
  }
  co_await barrier(ctx, Comm::kWorld);
  co_await win_free(ctx, win);
}

// Ring: bulk cell payload (plain put) followed by a small notified count
// put to rank + 1; wait for the neighbor's count (the particle pattern —
// data-before-notification is exactly what the oracle checks here).
sim::Proc<void> particles_body(Context& ctx, JobSpec spec) {
  const int r = ctx.world_rank;
  const int size = ctx.world_size;
  constexpr std::size_t kCountBytes = 64;
  std::vector<std::byte> inbox(spec.bytes_per_msg + kCountBytes);
  std::vector<std::byte> cells(spec.bytes_per_msg);
  Window win =
      co_await win_create(ctx, Comm::kWorld, inbox.data(), inbox.size());
  const int next = (r + 1) % size;
  for (int it = 0; it < spec.iterations; ++it) {
    co_await ctx.charge_compute_time(jitter(spec, r, it, kComputePhase));
    co_await put(ctx, win, next, 0, spec.bytes_per_msg, cells.data());
    co_await put_notify(ctx, win, next, spec.bytes_per_msg, kCountBytes,
                        cells.data(), it);
    co_await wait_notifications(ctx, win, kAnySource, it, 1);
    co_await flush(ctx);
  }
  co_await barrier(ctx, Comm::kWorld);
  co_await win_free(ctx, win);
}

// Strided scatter: notified puts to ranks + {1, 2, 4} (mod world), one
// window slot per stride — the symmetric shape means every rank also
// receives exactly one message per live stride.
sim::Proc<void> spmv_body(Context& ctx, JobSpec spec) {
  const int r = ctx.world_rank;
  const int size = ctx.world_size;
  constexpr int kStrides[] = {1, 2, 4};
  int live = 0;
  for (int s : kStrides) {
    if (s < size) ++live;
  }
  std::vector<std::byte> slots(
      static_cast<std::size_t>(live > 0 ? live : 1) * spec.bytes_per_msg);
  std::vector<std::byte> part(spec.bytes_per_msg);
  Window win =
      co_await win_create(ctx, Comm::kWorld, slots.data(), slots.size());
  for (int it = 0; it < spec.iterations; ++it) {
    co_await ctx.charge_compute_time(jitter(spec, r, it, kComputePhase));
    int slot = 0;
    for (int s : kStrides) {
      if (s >= size) continue;
      co_await put_notify(ctx, win, (r + s) % size,
                          static_cast<std::size_t>(slot) * spec.bytes_per_msg,
                          spec.bytes_per_msg, part.data(), it);
      ++slot;
    }
    if (live > 0) {
      co_await wait_notifications(ctx, win, kAnySource, it, live);
    }
    co_await flush(ctx);
  }
  co_await barrier(ctx, Comm::kWorld);
  co_await win_free(ctx, win);
}

sim::Proc<void> app_body(Context& ctx, JobSpec spec) {
  switch (spec.app) {
    case AppKind::kStencil:
      co_await stencil_body(ctx, spec);
      break;
    case AppKind::kParticles:
      co_await particles_body(ctx, spec);
      break;
    case AppKind::kSpmv:
      co_await spmv_body(ctx, spec);
      break;
    case AppKind::kSynthetic:
      break;  // handled in Job::run; never reaches a device
  }
}

}  // namespace

const char* to_string(AppKind app) {
  switch (app) {
    case AppKind::kSynthetic:
      return "synthetic";
    case AppKind::kStencil:
      return "stencil";
    case AppKind::kParticles:
      return "particles";
    case AppKind::kSpmv:
      return "spmv";
  }
  return "?";
}

std::optional<std::string> JobSpec::validate() const {
  if (id < 0) return "id must be >= 0";
  if (nodes < 1) return "nodes must be >= 1";
  if (ranks_per_device < 1) return "ranks_per_device must be >= 1";
  if (!(arrival >= 0.0)) return "arrival must be >= 0";
  if (!(duration > 0.0)) return "duration must be > 0";
  if (!(estimated_duration > 0.0)) return "estimated_duration must be > 0";
  if (iterations < 1) return "iterations must be >= 1";
  if (bytes_per_msg < 1) return "bytes_per_msg must be >= 1";
  return std::nullopt;
}

Job::Job(Cluster& cluster, JobSpec spec)
    : cluster_(cluster), spec_(std::move(spec)) {}

sim::Proc<void> Job::run(std::vector<int> nodes) {
  nodes_ = std::move(nodes);
  assert(static_cast<int>(nodes_.size()) == spec_.nodes);
  if (spec_.app == AppKind::kSynthetic) {
    co_await cluster_.sim().delay(spec_.duration);
    co_return;
  }
  co_await run_real();
}

sim::Proc<void> Job::run_real() {
  sim::Simulation& s = cluster_.sim();
  // The oracle tag keeps 0 for the cluster-wide world, so concurrent jobs
  // never collide with its key space either.
  world_ = cluster_.build_world(nodes_, spec_.ranks_per_device,
                                /*host_ranks=*/0, spec_.id + 1);
  const Cluster::RankFn body = [spec = spec_](Context& ctx) {
    return app_body(ctx, spec);
  };
  std::vector<sim::JoinHandle> kernels;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    kernels.push_back(s.spawn(
        Cluster::launch_ranks(*world_.runtimes[i], body, "job"),
        "job" + std::to_string(spec_.id) + "@" + std::to_string(nodes_[i])));
  }
  for (sim::JoinHandle& h : kernels) co_await h.join();
  // Quiesce: unbind the nodes' fabric sinks so late traffic for this job is
  // counted as a drop instead of leaking into the node's next tenant. The
  // world stays alive (suspended daemons still reference it).
  for (int phys : nodes_) {
    cluster_.fabric().bind_rx(phys, net::kMpiChannel, nullptr);
    cluster_.fabric().bind_rx(phys, net::kRuntimeChannel, nullptr);
  }
}

}  // namespace dcuda::cluster
