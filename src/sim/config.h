#pragma once

// Machine model configuration, calibrated to the paper's testbed (CSCS
// Greina: Haswell nodes, one Tesla K80 GPU per node, x EDR InfiniBand,
// CUDA 7.0, CUDA-aware OpenMPI 1.10.0, gdrcopy). See DESIGN.md §4.

#include <cstdint>
#include <stdexcept>

#include "net/fault.h"
#include "net/topology.h"
#include "sim/units.h"

namespace dcuda::sim {

struct DeviceConfig {
  // One GK210 die of a K80 (the paper uses a single GPU per node).
  int num_sms = 13;
  int max_blocks_per_sm = 16;
  int max_threads_per_sm = 2048;
  int regs_per_sm = 65536;
  int max_regs_per_thread = 255;

  // fp64 throughput per SM. The paper's workloads are double precision.
  FlopRate sm_flops = gflops(45.0);
  // A single block (128 threads of 2048) cannot saturate an SM's pipelines;
  // roughly 4 resident blocks are needed for full issue rate.
  double blocks_to_saturate_sm = 4.0;

  // Aggregate device memory bandwidth and the per-block streaming cap.
  // A copy moves 2 bytes through the memory system per payload byte, so a
  // 2.1 GB/s cap yields the ~1.06 GB/s single-block put bandwidth of Fig. 6.
  Rate mem_bandwidth = gbs(210.0);
  Rate per_block_mem_bandwidth = gbs(2.1);

  // Kernel launch overhead paid by the host per launch (fork-join model).
  Dur launch_overhead = micros(6.0);
  // Additional per-block scheduling cost when a block starts executing.
  Dur block_dispatch_overhead = micros(0.2);
};

struct PcieConfig {
  // Gen3 x16-ish effective numbers.
  Rate bandwidth = gbs(12.0);
  // Latency of a mapped-memory transaction (gdrcopy-style small write).
  Dur txn_latency = micros(1.0);
  // Issue cost on the initiating processor for a posted write.
  Dur post_cost = micros(0.15);
  // DMA engine setup latency (why mapped writes win for queue entries).
  Dur dma_startup = micros(7.0);
  // GPUDirect peer reads through PCIe run well below link rate on Kepler.
  Rate gpudirect_bandwidth = gbs(3.2);
};

struct NetConfig {
  // Effective per-direction NIC bandwidth and wire latency (x EDR IB as
  // measured by the paper: ~6 GB/s, contributing to the 9.2 us put latency).
  Rate bandwidth = gbs(6.0);
  Dur latency = micros(1.4);
  // Software overhead per message on send and on receive (verbs + MPI).
  Dur sw_overhead = micros(0.45);
  // Interconnect topology and NIC rail layout (net/topology.h,
  // docs/TOPOLOGY.md). The default — flat topology, one rail — is the
  // paper's fabric: one direct wire per pair and one injection lane per NIC.
  // A fat-tree or torus expands every pair into per-hop traversals over
  // shared links; rails > 1 stripes messages across independent injection
  // lanes. Every layout resequences per pair at the receiver.
  net::TopoConfig topo;
};

struct MpiConfig {
  // Messages up to this size go eagerly (single transfer, copied at target);
  // larger ones use rendezvous (RTS/CTS).
  std::size_t eager_limit = 8 * 1024;
  // CUDA-aware OpenMPI stages device messages larger than this through host
  // memory for better bandwidth (paper §IV-C, stencil discussion: 20 kB).
  std::size_t device_staging_threshold = 20 * 1024;
  // Pipeline chunk for host-staged device transfers.
  std::size_t staging_chunk = 256 * 1024;
  // Host-side processing cost per MPI call (isend/irecv/test).
  Dur call_overhead = micros(0.25);
};

// Which processor runs the notified-access runtime (docs/BACKENDS.md).
enum class RuntimeBackend : std::int32_t {
  // Paper-faithful (§III): a host event handler drains the device→host
  // command queues, drives all MPI activity, and loops notifications
  // through host memory. The reference backend — all golden traces and
  // calibration numbers assume it.
  kHostLoop = 0,
  // Hardware-supported outlook (§III-D, ROADMAP item 3): commands ring a
  // device→NIC doorbell (pcie::PcieLink::doorbell), the NIC processes them
  // without the host worker's round-robin wakeup, and notifications land on
  // a device-resident notification board (gpu::DeviceBoard) via direct
  // NIC→device posted writes. Same wire protocol, fabric, and
  // go-back-N/FIFO guarantees as kHostLoop.
  kDeviceInitiated = 1,
};

struct RuntimeConfig {
  // Host event-handler cost to dispatch one queue item / command.
  Dur dispatch_cost = micros(0.15);
  // Discovery latency of a command in a rank's queue: the single host
  // worker polls many rank queues round-robin, so an enqueued command sits
  // a while before the block manager sees it. (MPI messages are found
  // promptly — the progress loop spins on them.)
  Dur host_wakeup_latency = micros(2.2);
  // Device-side cost to assemble and issue one command (meta tuple build).
  Dur device_issue_cost = micros(0.55);
  // Device-side notification matching: fixed cost per matching round plus a
  // per-scanned-entry cost (the paper's 8-thread matcher is compute-heavy;
  // §IV-B explains the imperfect overlap for compute-bound workloads by it).
  Dur match_round_cost = micros(0.8);
  Dur match_entry_cost = micros(0.06);
  // Queue geometry (entries per circular buffer).
  int command_queue_entries = 16;
  int notification_queue_entries = 64;
  int ack_queue_entries = 16;
  int logging_queue_entries = 64;
  // RuntimeBackend::kDeviceInitiated only: NIC command-processor cost per
  // doorbell'd command / received meta. Replaces dispatch_cost, and the
  // round-robin host_wakeup_latency disappears entirely — doorbells are
  // interrupt-driven, not discovered by a polling sweep.
  Dur nic_dispatch_cost = micros(0.05);
  // When true, the notification matcher's compute cost is charged to the
  // rank's SM (paper behaviour); false idealizes a free matcher
  // (ablation_matching).
  bool charge_matching_cost = true;
};

// Every notified put takes the paper's meta + payload pipeline (Fig. 5);
// there is no eager small-put path. The field is kept only because
// perfbench/ writes it, and ClusterSpec::validate rejects any value but 0.
struct RmaConfig {
  std::size_t eager_threshold = 0;
};

// Host processor model, used by host ranks (§V extension): ranks that run
// on the host CPU but communicate through the same notified remote memory
// access machinery as device ranks.
struct HostConfig {
  FlopRate flops = gflops(50.0);
  Rate mem_bandwidth = gbs(60.0);
  // One rank (thread) cannot saturate the socket alone.
  double threads_to_saturate = 4.0;
};

struct MachineConfig {
  int num_nodes = 1;
  DeviceConfig device;
  HostConfig host;
  PcieConfig pcie;
  NetConfig net;
  MpiConfig mpi;
  RuntimeConfig runtime;
  RmaConfig rma;
  // Runtime backend selection (docs/BACKENDS.md). The default host-loop
  // backend keeps the event schedule byte-identical to the historical
  // reference; kDeviceInitiated reroutes command dispatch and notification
  // delivery through the NIC/device paths above.
  RuntimeBackend backend = RuntimeBackend::kHostLoop;

  bool device_initiated() const {
    return backend == RuntimeBackend::kDeviceInitiated;
  }
  // Parallel event engine (docs/PERF.md, "Parallel engine"). The simulation
  // always keeps one logical shard per node; these knobs only choose how
  // shards are grouped onto executors and how many worker threads run them,
  // so every setting produces byte-identical results. `shards` is the
  // executor-group count (0 = one group per node shard); `threads` is
  // the worker-thread count (1 = serial execution, the default).
  int shards = 0;
  int threads = 1;
  // Lossy-fabric fault injection (net/fault.h): all probabilities zero by
  // default, a perfectly reliable wire with no headers, coins or timers.
  // Drop, corrupt and link-down must stay below 1 so a packet can get
  // through. Any nonzero probability arms the NIC-level go-back-N recovery
  // protocol; decisions draw from the kFault perturbation stream, so faulty
  // runs need a Perturbation (Cluster installs one automatically, seeded by
  // perturb_seed — 0 is a valid fault seed).
  net::FaultConfig fault;
  // Schedule perturbation (docs/TESTING.md): 0 runs the canonical
  // deterministic schedule; any other value seeds a sim::Perturbation that
  // explores an alternative — still fully reproducible — event interleaving.
  // perturb_classes selects the decision classes (sim/perturb.h bit mask);
  // the default enables all of them.
  std::uint64_t perturb_seed = 0;
  std::uint32_t perturb_classes = 0xffffffffu;
};

inline const char* backend_name(RuntimeBackend b) {
  return b == RuntimeBackend::kDeviceInitiated ? "device_initiated"
                                               : "host_loop";
}

inline MachineConfig machine_config(int num_nodes) {
  MachineConfig m;
  m.num_nodes = num_nodes;
  return m;
}

}  // namespace dcuda::sim

namespace dcuda {

// Invalid configuration detected by library code (ClusterSpec, JobSpec,
// cluster::Scheduler). Callers can catch it; library code never exits the
// process. Only the benches' DCUDA_* parser (bench/env.h) exits on bad
// input.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace dcuda
