#include "cluster/cluster.h"

#include <numeric>
#include <utility>

namespace dcuda {

std::optional<std::string> ClusterSpec::validate() const {
  if (machine.num_nodes < 1) {
    return "machine.num_nodes must be >= 1";
  }
  if (ranks_per_device < 1) {
    return "ranks_per_device must be >= 1";
  }
  if (host_ranks < 0) {
    return "host_ranks must be >= 0";
  }
  if (multi_tenant && host_ranks > 0) {
    // Jobs always launch with host_ranks = 0 (Job::run_real).
    return "host_ranks must be 0 on a multi_tenant cluster";
  }
  if (machine.shards < 0) {
    return "machine.shards must be >= 0 (0 = one executor per shard)";
  }
  if (machine.threads < 1) {
    return "machine.threads must be >= 1";
  }
  if (machine.net.topo.rails < 1) {
    return "machine.net.topo.rails must be >= 1";
  }
  if (machine.rma.eager_threshold != 0) {
    return "machine.rma.eager_threshold must be 0 (the eager put path was "
           "removed)";
  }
  const net::FaultConfig& f = machine.fault;
  for (double p : {f.drop_prob, f.dup_prob, f.corrupt_prob, f.delay_prob,
                   f.link_down_prob}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return "fault probabilities must be in [0, 1]";
    }
  }
  // A loss class that fires on every transmission leaves go-back-N nothing
  // it could ever deliver: the run would abort or never finish.
  for (double p : {f.drop_prob, f.corrupt_prob, f.link_down_prob}) {
    if (p >= 1.0) {
      return "fault drop/corrupt/link-down probabilities must be in [0, 1)";
    }
  }
  return std::nullopt;
}

Cluster::Cluster(ClusterSpec spec)
    : cfg_(std::move(spec.machine)),
      rpd_(spec.ranks_per_device),
      host_ranks_(spec.host_ranks),
      multi_tenant_(spec.multi_tenant) {
  {
    // Re-validate through the spec view of the already-moved fields so the
    // check and the construction can't drift apart.
    ClusterSpec check{cfg_, rpd_, host_ranks_, multi_tenant_};
    if (auto err = check.validate()) {
      throw ConfigError("invalid ClusterSpec: " + *err);
    }
  }
  if (multi_tenant_) {
    // Multi-tenant mode runs the engine as one shard on one thread,
    // whatever the executor knobs say. Jobs construct endpoints and
    // runtimes mid-simulation, which the sharded fast paths don't allow —
    // and a fixed engine layout keeps the job transcript byte-identical
    // across DCUDA_SHARDS/DCUDA_THREADS settings (the cluster_transcript
    // golden case).
    sim_.configure_shards(1);
    sim_.set_executor(1, 1);
    tracer_.set_shards(1);
  } else {
    // Sharded engine (docs/PERF.md, "Parallel engine"): one logical shard
    // per node, always — the shard/thread knobs below only group shards
    // onto executors, so results are byte-identical for every setting. Must
    // happen before any component schedules events or spawns daemons.
    sim_.configure_shards(cfg_.num_nodes);
    sim_.set_executor(cfg_.shards, cfg_.threads);
    tracer_.set_shards(cfg_.num_nodes);
  }
  // Install the perturbation before any component spawns daemons, so every
  // event of the run — including runtime startup — draws from the seeded
  // streams. Fault injection needs the kFault stream even with perturb_seed
  // 0 (a valid fault seed): armed faults install a perturbation carrying
  // kFault while the schedule classes stay off unless perturb_seed asks for
  // them — so the canonical schedule survives a pure fault run. kFault still
  // honors the perturb_classes mask, which lets the fuzz shrinker take the
  // loss dimension out of a failing case independently.
  std::uint32_t classes =
      cfg_.perturb_seed != 0
          ? (cfg_.perturb_classes & sim::Perturbation::kAllClasses)
          : 0u;
  if (cfg_.fault.any()) {
    classes |= cfg_.perturb_classes & sim::Perturbation::kFault;
  }
  if (classes != 0u) {
    sim_.set_perturbation(cfg_.perturb_seed, classes);
  }
  fabric_ = std::make_unique<net::Fabric>(sim_, cfg_.num_nodes, cfg_.net,
                                          cfg_.fault);
  fabric_->set_tracer(&tracer_);
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    // Node hardware is built inside its shard so triggers/resources record
    // the right owner for the parallel-window affinity checks.
    sim::ShardGuard guard(sim_, sim_.shard_for(n));
    pcie_.push_back(std::make_unique<pcie::PcieLink>(sim_, cfg_.pcie));
    pcie_.back()->set_tracer(&tracer_, n);
    devices_.push_back(std::make_unique<gpu::Device>(sim_, n, cfg_.device,
                                                     pcie_.back().get(), &tracer_));
  }
  if (multi_tenant_) {
    // No global world: each job builds its own over its placement when it
    // starts (Job::run_real).
    return;
  }
  std::vector<int> nodes(static_cast<size_t>(cfg_.num_nodes));
  std::iota(nodes.begin(), nodes.end(), 0);
  world_ = build_world(std::move(nodes), rpd_, host_ranks_, /*job_tag=*/0);
}

RankWorld Cluster::build_world(std::vector<int> nodes, int ranks_per_device,
                               int host_ranks, int job_tag) {
  RankWorld w;
  std::vector<gpu::Device*> devs;
  std::vector<sim::Mailbox<net::Packet>*> mpi_rx;
  for (int phys : nodes) {
    sim::ShardGuard guard(sim_, sim_.shard_for(phys));
    devs.push_back(&device(phys));
    w.mpi_rx.push_back(std::make_unique<sim::Mailbox<net::Packet>>(sim_));
    mpi_rx.push_back(w.mpi_rx.back().get());
    fabric_->bind_rx(phys, mpi_rx.back());
  }
  w.mpi = std::make_unique<mpi::World>(sim_, *fabric_, cfg_.mpi, devs, nodes,
                                       mpi_rx);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int phys = nodes[i];
    sim::ShardGuard guard(sim_, sim_.shard_for(phys));
    w.runtimes.push_back(std::make_unique<rt::NodeRuntime>(
        sim_, device(phys), w.mpi->at(static_cast<int>(i)), pcie(phys), cfg_,
        ranks_per_device, host_ranks, job_tag));
  }
  return w;
}

void Cluster::require_world(const char* what) const {
  if (multi_tenant_) {
    throw ConfigError(std::string("Cluster::") + what +
                      " needs a cluster-wide world; a multi_tenant cluster "
                      "runs jobs through cluster::Scheduler");
  }
}

sim::Proc<void> Cluster::launch_ranks(rt::NodeRuntime& runtime, RankFn fn,
                                      const char* launch_name) {
  // `fn` lives in this frame for the whole launch; per-block invocations
  // create one Context each (the paper's dcuda_context).
  gpu::Kernel kernel = [&runtime, &fn](gpu::BlockCtx& blk) -> sim::Proc<void> {
    Context ctx;
    co_await init(ctx, KernelParam{&runtime}, blk);
    co_await fn(ctx);
    co_await finish(ctx);
  };
  const gpu::LaunchConfig lc{runtime.ranks_per_device(), 128, 26};
  co_await runtime.device().launch(lc, std::move(kernel), launch_name);
}

sim::Proc<void> Cluster::run_host_rank(int n, int host_index, const RankFn& fn) {
  Context ctx;
  co_await init_host(ctx, KernelParam{&node(n)}, host_index);
  co_await fn(ctx);
  co_await finish(ctx);
}

sim::Dur Cluster::run(RankFn fn, RankFn host_fn) {
  require_world("run");
  const sim::Time t0 = sim_.now();
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    sim_.spawn_on(sim_.shard_for(n), launch_ranks(node(n), fn, "dcuda"),
                  "host@" + std::to_string(n));
    for (int h = 0; h < host_ranks_; ++h) {
      sim_.spawn_on(sim_.shard_for(n), run_host_rank(n, h, host_fn ? host_fn : fn),
                    "hostrank@" + std::to_string(n) + "/" + std::to_string(h));
    }
  }
  sim_.run();
  return sim_.now() - t0;
}

namespace {
// Spawned from a loop: must not be a capturing lambda (the closure would die
// before the coroutine does); `fn` outlives sim_.run() in the caller frame.
sim::Proc<void> host_body(const Cluster::HostFn& fn, int n) { co_await fn(n); }
}  // namespace

sim::Dur Cluster::run_hosts(HostFn fn) {
  require_world("run_hosts");
  const sim::Time t0 = sim_.now();
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    sim_.spawn_on(sim_.shard_for(n), host_body(fn, n),
                  "host@" + std::to_string(n));
  }
  sim_.run();
  return sim_.now() - t0;
}

}  // namespace dcuda
