#pragma once

// Simulated GPU cluster: N nodes, each with one device, one PCIe link, one
// MPI endpoint and one dCUDA node runtime, connected by the network fabric.
// This is the top-level entry point examples, tests and benchmarks build on.
//
// Construction goes through ClusterSpec (named, validated fields). The
// default spec is the paper machine: one job owning every node, placed
// immediately.
// spec.multi_tenant = true instead builds a shared fabric with no global
// rank world; cluster::Scheduler then places whole dCUDA jobs onto node
// subsets at simulated times (docs/CLUSTER.md).

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dcuda/dcuda.h"
#include "gpu/device.h"
#include "mpi/mpi.h"
#include "net/fabric.h"
#include "pcie/pcie.h"
#include "runtime/node_runtime.h"
#include "sim/config.h"
#include "sim/mailbox.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace dcuda {

// Typed cluster construction surface (docs/API.md "ClusterSpec"). An
// aggregate, built with designated initializers:
//
//   Cluster c({.machine = m, .ranks_per_device = 4});
//   Cluster c({.machine = m, .multi_tenant = true});
struct ClusterSpec {
  // The simulated machine (node count, device/net/runtime models, executor
  // and perturbation knobs). The benches fill it from DCUDA_* vars
  // (bench/env.h); the library reads no environment.
  sim::MachineConfig machine = {};
  // Device ranks per node. Defaults to the paper's launch configuration:
  // 208 blocks per device (the maximum the K80 keeps in flight at 128
  // threads and 26 registers).
  int ranks_per_device = 208;
  // §V host ranks per node: local ranks [rpd, rpd + host_ranks) run on the
  // host CPU.
  int host_ranks = 0;
  // Multi-tenant mode: no global MPI world or node runtimes are built; jobs
  // submitted through cluster::Scheduler own node subsets for a bounded
  // simulated time and bring their own job-local world (docs/CLUSTER.md).
  // Runs the engine as one shard so jobs can be constructed
  // mid-simulation. Jobs have no host ranks, so host_ranks must stay 0.
  bool multi_tenant = false;

  // First problem found, or nullopt when the spec is constructible. The
  // Cluster constructor throws any error as a dcuda::ConfigError: a
  // simulation must never run on a half-valid machine.
  std::optional<std::string> validate() const;
};

// A rank world over a list of physical nodes: per node, the mailbox the
// fabric delivers into, one MPI endpoint and one dCUDA node runtime, entry i
// of each serving world node i (Cluster::build_world). The mailboxes come
// first so they outlive the endpoints consuming them.
struct RankWorld {
  std::vector<std::unique_ptr<sim::Mailbox<net::Packet>>> mpi_rx;
  std::unique_ptr<mpi::World> mpi;
  std::vector<std::unique_ptr<rt::NodeRuntime>> runtimes;
};

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec = {});

  sim::Simulation& sim() { return sim_; }
  sim::Tracer& tracer() { return tracer_; }
  const sim::MachineConfig& config() const { return cfg_; }
  int num_nodes() const { return cfg_.num_nodes; }
  int ranks_per_device() const { return rpd_; }
  int host_ranks() const { return host_ranks_; }
  int ranks_per_node() const { return rpd_ + host_ranks_; }
  int world_size() const { return cfg_.num_nodes * ranks_per_node(); }
  bool multi_tenant() const { return multi_tenant_; }

  gpu::Device& device(int node) { return *devices_[static_cast<size_t>(node)]; }
  // node(), mpi(), run() and run_hosts() throw a dcuda::ConfigError on a
  // multi_tenant cluster, which has no cluster-wide runtimes or world.
  rt::NodeRuntime& node(int n) {
    require_world("node");
    return *world_.runtimes[static_cast<size_t>(n)];
  }
  mpi::Endpoint& mpi(int node) {
    require_world("mpi");
    return world_.mpi->at(node);
  }
  net::Fabric& fabric() { return *fabric_; }
  pcie::PcieLink& pcie(int node) { return *pcie_[static_cast<size_t>(node)]; }

  // -- dCUDA execution -------------------------------------------------

  // The per-rank program: the body of the single dCUDA kernel. The context
  // is initialized (dcuda::init) before the function runs and finalized
  // (dcuda::finish) after it returns, mirroring the paper's listing.
  using RankFn = std::function<sim::Proc<void>(Context&)>;

  // Launches the kernel on every device (and, when the cluster has host
  // ranks, `host_fn` — or `fn` if none given — once per host rank) and runs
  // the simulation to completion. Returns the simulated duration of the
  // longest kernel invocation as timed host-side (the paper's methodology).
  sim::Dur run(RankFn fn, RankFn host_fn = nullptr);

  // Launches `fn` as every device rank of `runtime`'s node: one kernel
  // named `launch_name` whose blocks each run init, `fn` and finish. run()
  // and cluster::Job launch their ranks through it.
  static sim::Proc<void> launch_ranks(rt::NodeRuntime& runtime, RankFn fn,
                                      const char* launch_name);

  // Builds the rank world over `nodes` (physical; entry i becomes world node
  // i): its receive mailboxes, bound as the nodes' fabric sinks, then the
  // endpoints in rank order, then the node runtimes, each inside its node's
  // shard. The constructor builds the cluster-wide world from every node; a
  // gang-scheduled cluster::Job builds its own from its placement.
  RankWorld build_world(std::vector<int> nodes, int ranks_per_device,
                        int host_ranks, int job_tag);

  // -- Baseline (MPI-CUDA) execution ------------------------------------

  // One host program per node (fork-join kernels + two-sided MPI).
  using HostFn = std::function<sim::Proc<void>(int node)>;
  sim::Dur run_hosts(HostFn fn);

 private:
  void require_world(const char* what) const;
  sim::Proc<void> run_host_rank(int n, int host_index, const RankFn& fn);

  sim::MachineConfig cfg_;
  int rpd_;
  int host_ranks_;
  bool multi_tenant_ = false;
  sim::Simulation sim_;
  sim::Tracer tracer_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<pcie::PcieLink>> pcie_;
  std::vector<std::unique_ptr<gpu::Device>> devices_;
  RankWorld world_;  // empty on a multi_tenant cluster
};

}  // namespace dcuda
