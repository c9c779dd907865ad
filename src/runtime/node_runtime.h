#pragma once

// Host-side dCUDA runtime, one instance per device (Fig. 4).
//
// The event handler is a set of host processes sharing one host CPU slot:
// per-rank command loops (the block managers) drain the device→host command
// queues and trigger nonblocking MPI activity; a meta receiver waits on
// pre-posted receives from remote event handlers and dispatches incoming
// remote-memory-access requests to the matching target block manager
// (Fig. 5); completed operations update the device-visible flush counter and
// enqueue notifications into device memory.
//
// Everything is functional: window registries, the device-id → global-id
// translation (the paper's hash map; device ids are dense, so a vector), the
// flush-id frontier, and the notification payloads all really exist, and the
// data paths memcpy real bytes.

#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu/device.h"
#include "mpi/mpi.h"
#include "net/fabric.h"
#include "pcie/pcie.h"
#include "queue/circular_queue.h"
#include "runtime/protocol.h"
#include "sim/block_pool.h"
#include "sim/config.h"
#include "sim/mailbox.h"
#include "sim/resource.h"
#include "sim/trigger.h"

namespace dcuda::rt {

// Contiguous completion frontier over ids 1, 2, 3, ...: ids may complete in
// any order, and the frontier is the largest id whose predecessors all
// completed. In-order completions (the common case) never touch `ahead`.
struct Frontier {
  std::uint64_t value = 0;
  std::vector<std::uint64_t> ahead;  // completed past a gap, ascending

  // Marks `id` complete; true when the frontier advanced.
  bool complete(std::uint64_t id);
};

// Per-rank shared state. The queue rings, the flush counter, and the pending
// notification buffer conceptually live in device memory; the translation
// table and flush frontier live in host memory (block manager).
struct RankState {
  RankState(sim::Simulation& s, int global, int local,
            queue::Transport cmd_t, queue::Transport ack_t, queue::Transport notif_t,
            const sim::RuntimeConfig& rc)
      : global_rank(global),
        local_rank(local),
        cmd_q(s, rc.command_queue_entries, std::move(cmd_t)),
        ack_q(s, rc.ack_queue_entries, std::move(ack_t)),
        notif_q(s, rc.notification_queue_entries, std::move(notif_t)),
        flush_trig(s),
        host_flush_trig(s) {}

  int global_rank;
  int local_rank;

  queue::CircularQueue<Command> cmd_q;     // device -> host
  queue::CircularQueue<Ack> ack_q;         // host -> device
  queue::CircularQueue<Notification> notif_q;  // host -> device

  // Device-visible flush progress: id of the last completed remote memory
  // access whose predecessors are all done (§III-B). Written by the block
  // manager via posted PCIe writes.
  std::uint64_t flush_done = 0;
  sim::Trigger flush_trig;

  // Per-window operation counters for the paper's window flush: issued is
  // device-side state, completed is device-visible and advanced by the
  // block manager (completion order within a window is irrelevant — counts
  // suffice). Indexed by the rank-local window id, which win_create hands
  // out densely from 0 and sizes both vectors for.
  std::vector<std::uint64_t> win_issued;
  std::vector<std::uint64_t> win_completed;

  // Device-side library state (device memory, owned by the rank's block).
  std::uint64_t next_flush_id = 0;
  std::int32_t next_win_device_id = 0;
  // On-device notification board: dequeued-but-unmatched notifications in
  // both backends, and additionally the direct delivery target of the
  // kDeviceInitiated backend (NIC→device posted writes and device-local
  // puts deposit here, bypassing notif_q). Its epoch lets matchers detect
  // arrivals that bypassed the queue.
  gpu::DeviceBoard<Notification> board;

  // Host-side block manager state: the device -> global window id map
  // (indexed by rank-local window id; -1 once freed) and the host-side flush
  // frontier.
  std::vector<std::int32_t> win_translate;
  std::array<std::int32_t, 2> win_create_seq{0, 0};  // per comm
  Frontier flush;
  sim::Trigger host_flush_trig;

  std::int32_t global_window(std::int32_t device_id) const {
    assert(device_id >= 0 &&
           static_cast<std::size_t>(device_id) < win_translate.size() &&
           win_translate[static_cast<std::size_t>(device_id)] >= 0 &&
           "unknown window");
    return win_translate[static_cast<std::size_t>(device_id)];
  }
  // Rendezvous fence (eager fast path only): rendezvous-path puts this rank
  // issued per target node. The target reconstructs the same sequence from
  // per-rank meta arrival order (protocol.h).
  std::unordered_map<int, std::uint64_t> rdv_issued;
};

class NodeRuntime {
 public:
  // `ranks_per_device` device ranks (GPU blocks) plus `host_ranks` host
  // ranks (§V extension) per node. Local ranks [0, rpd) are device ranks;
  // [rpd, rpd+host_ranks) run on the host CPU. World rank = node *
  // ranks_per_node() + local rank, where the node index is the endpoint's
  // rank in its world — job-relative under cluster::Scheduler
  // (docs/CLUSTER.md), whose world translates to physical nodes at the
  // wire. `job_tag` namespaces the global window ids, oracle keys and
  // barrier domains of concurrent jobs (0 = the cluster-wide world).
  // `eager_rx` is the runtime-channel mailbox the eager fast path consumes:
  // the fabric delivers the node's runtime channel there (Fabric::bind_rx,
  // Cluster::build_world).
  NodeRuntime(sim::Simulation& s, gpu::Device& dev, mpi::Endpoint& ep,
              pcie::PcieLink& pcie, net::Fabric& fabric,
              const sim::MachineConfig& cfg, int ranks_per_device,
              int host_ranks, int job_tag,
              sim::Mailbox<net::Packet>& eager_rx);
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  // Node index in the rank world: all rank/window arithmetic runs on it.
  int node() const { return ep_.rank(); }
  // Physical node: fabric packets, tracer spans and proc names.
  int phys_node() const { return dev_.node(); }
  int job_tag() const { return job_tag_; }
  int ranks_per_device() const { return rpd_; }
  int host_ranks() const { return host_ranks_; }
  int ranks_per_node() const { return rpd_ + host_ranks_; }
  int num_nodes() const { return ep_.size(); }
  int world_size() const { return ranks_per_node() * ep_.size(); }
  gpu::Device& device() { return dev_; }
  mpi::Endpoint& endpoint() { return ep_; }
  const sim::MachineConfig& config() const { return cfg_; }
  sim::Simulation& simulation() { return sim_; }

  RankState& rank(int local_rank) { return *ranks_[static_cast<size_t>(local_rank)]; }
  bool is_host_rank(int local_rank) const { return local_rank >= rpd_; }
  bool device_initiated() const { return cfg_.device_initiated(); }

  // Oracle key namespacing (sim::InvariantObserver): concurrent jobs must
  // not collide in the observer's per-rank / per-node / per-domain maps.
  // job_tag 0 reproduces the single-tenant keys exactly.
  int oracle_rank(int rank) const { return (job_tag_ << 20) + rank; }
  int oracle_node(int n) const { return job_tag_ * 4096 + n; }
  int barrier_world_key() const { return -1 - job_tag_; }

  // Host-rank processor resources (shared by the node's host ranks).
  sim::SharedResource& host_compute() { return *host_compute_; }
  sim::SharedResource& host_memory() { return *host_memory_; }

  // Device-visible window table: registration info of a window for a rank
  // local to this device (used for direct shared-memory accesses).
  struct WinRankInfo {
    std::byte* base = nullptr;
    std::uint64_t bytes = 0;
    std::int32_t win_device_id = -1;
    bool valid = false;
  };
  const WinRankInfo* window_peer(std::int32_t global_id, int local_rank) const;

  // Device->host log queue (one per device, shared by all ranks).
  queue::CircularQueue<LogEntry>& log_queue() { return *log_q_; }
  const std::vector<std::string>& log_lines() const { return log_lines_; }

  // Direct device-side notification delivery: deposits on the target rank's
  // on-device board, bypassing the host loop the paper uses. Used by the
  // kDeviceInitiated backend for every device-local notified access.
  void device_local_notify(int target_local_rank, Notification n);

  // Oracle events of a shared-memory notified put (sim::InvariantObserver):
  // issue, ordering, landing and delivery coincide, since the data already
  // moved. Reporting all four keeps the data-before-notification and FIFO
  // oracles closed over the local path of both backends.
  void report_local_notified_put(int origin_rank, int target_rank,
                                 std::int32_t win_global_id,
                                 std::uint64_t bytes, int tag) const;

 private:
  struct WindowInfo {
    Comm comm = Comm::kWorld;
    std::vector<WinRankInfo> per_rank;  // indexed by local rank
    int registered = 0;
    int freed = 0;
  };

  // -- Eager/aggregated small-put fast path (sim::RmaConfig) -----------
  //
  // Origin side: one aggregator per target node parks eager-sized puts
  // until the batch-size/byte cap or the aggregation window flushes them
  // as a single runtime-channel fabric packet. Target side: eager_loop
  // lands batches strictly in delivery order and commits each batch's
  // notifications per rank with one batched queue write.
  struct EagerOrigin {
    int local_rank = -1;
    std::uint64_t flush_id = 0;
    std::int32_t win_device_id = -1;
  };
  struct EagerAggregator {
    std::vector<EagerPutRecord> records;
    sim::PoolVector<EagerOrigin> origins;  // parallel to records
    std::vector<std::byte> payload;        // concatenated record payloads
    std::uint64_t epoch = 0;               // bumped per flush; stale timers no-op
    std::uint64_t next_batch_seq = 0;
  };
  // A batch taken out of its aggregator but not yet on the wire: its packet
  // (EagerBatchHeader + records + payload) is already built. Staging is
  // synchronous (no suspension), so callers can stage a full batch, append
  // into the fresh one, and only then pay the (suspending) ship — the
  // per-rank record order stays intact.
  struct StagedEager {
    int target_node = -1;
    net::Packet batch;
    sim::PoolVector<EagerOrigin> origins;
  };

  sim::Proc<void> command_loop(int local_rank);
  sim::Proc<void> meta_loop();
  sim::Proc<void> log_loop();
  sim::Proc<void> eager_loop();
  // Backend-routed dispatch: the host worker (dispatch_cost, shared
  // host_cpu_ slot) under kHostLoop, the NIC command processor
  // (nic_dispatch_cost, nic_proc_) under kDeviceInitiated. Host-side work —
  // host-rank commands and the log drain — always takes the host worker:
  // host ranks run on the CPU and their runtime agent stays the host loop in
  // both backends.
  sim::Proc<void> dispatch_cost(bool host_path = false);

  sim::Proc<void> process_command(int local_rank, Command c);
  sim::Proc<void> handle_win_create(int local_rank, Command c);
  sim::Proc<void> handle_win_free(int local_rank, Command c);
  sim::Proc<void> handle_put(int local_rank, Command c);
  sim::Proc<void> handle_get(int local_rank, Command c);
  sim::Proc<void> handle_barrier(int local_rank, Command c);
  sim::Proc<void> handle_finish(int local_rank, Command c);
  sim::Proc<void> handle_meta(Meta m, std::uint64_t rdv_seq);
  sim::Proc<void> handle_eager_put(int local_rank, Command c);
  StagedEager stage_eager(int target_node);
  sim::Proc<void> ship_eager(StagedEager s);
  sim::Proc<void> flush_eager(int target_node);
  sim::Proc<void> eager_flush_timer(int target_node, std::uint64_t epoch);
  sim::Proc<void> handle_eager_batch(net::Packet p);
  void mark_rdv_landed(int origin_rank, std::uint64_t seq);

  // The one notification delivery routine: every notification of `ns`
  // reaches local rank `local_rank`, in order. Under kHostLoop (and for host
  // ranks) they commit to the rank's notif_q with one batched queue write;
  // under kDeviceInitiated the NIC writes them straight onto the rank's
  // on-device board with one posted PCIe write — no host queue bookkeeping,
  // no credits. `ns` must outlive the returned Proc.
  sim::Proc<void> deliver(int local_rank, std::span<const Notification> ns);
  // Deposit-and-wake tail of both board paths (NIC board write, device-local
  // put): the records join the board and the rank's matcher wakes up.
  void board_deposit(int local_rank, std::span<const Notification> ns);
  // Visibility of the oldest board write in flight.
  void commit_board_write();
  // Marks flush id `id` complete for the rank and propagates the contiguous
  // frontier to device memory.
  sim::Proc<void> complete_flush(RankState& rs, std::uint64_t id,
                                 std::int32_t win_device_id);

  queue::Transport pcie_transport(pcie::Dir write_dir);
  // Command-queue transport of the kDeviceInitiated backend: entry writes
  // ring the NIC doorbell (pcie::PcieLink::doorbell) instead of landing in
  // host memory. Same posted-write timing and ordering as pcie_transport.
  queue::Transport doorbell_transport();

  sim::Simulation& sim_;
  gpu::Device& dev_;
  mpi::Endpoint& ep_;
  pcie::PcieLink& pcie_;
  net::Fabric& fabric_;
  sim::MachineConfig cfg_;
  int rpd_;
  int host_ranks_;
  int job_tag_;
  sim::Mailbox<net::Packet>& eager_rx_;

  sim::FifoResource host_cpu_;  // single runtime worker thread per device
  sim::FifoResource nic_proc_;  // NIC command processor (kDeviceInitiated)
  std::unique_ptr<sim::SharedResource> host_compute_;
  std::unique_ptr<sim::SharedResource> host_memory_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::map<std::int32_t, WindowInfo> windows_;  // by global id
  std::array<int, 2> barrier_arrivals_{0, 0};   // per comm
  std::vector<EagerAggregator> eager_agg_;      // by target node; empty when
                                                // the fast path is disabled
  // Rendezvous fence, target side (allocated only with the fast path on):
  // kPut metas seen per origin rank (reconstructs the origin's rdv_issued
  // sequence from FIFO meta arrival), landed frontiers over that sequence
  // (payloads can land out of order), and the trigger batch handlers wait
  // on.
  std::unordered_map<int, std::uint64_t> rdv_meta_seen_;
  std::unordered_map<int, Frontier> rdv_landed_;
  std::unique_ptr<sim::Trigger> rdv_landed_trig_;
  // handle_eager_batch's per-target-rank notification groups. Batches are
  // handled one at a time (eager_loop), so one set is reused by all.
  std::vector<std::vector<Notification>> eager_groups_;
  // NIC board writes in flight (kDeviceInitiated), oldest first. H2D posted
  // writes become visible in issue order, so each commit takes the front
  // entry and its callable carries only `this` — it fits std::function's
  // inline buffer. A mailbox as a plain FIFO: nothing waits on it.
  struct BoardWrite {
    int local_rank = -1;
    bool traced = false;
    sim::Time begin = 0.0;
    sim::PoolVector<Notification> ns;
  };
  sim::Mailbox<BoardWrite> board_writes_;

  std::unique_ptr<queue::CircularQueue<LogEntry>> log_q_;
  std::vector<std::string> log_lines_;
};

}  // namespace dcuda::rt
