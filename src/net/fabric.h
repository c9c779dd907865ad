#pragma once

// Cluster interconnect model (x EDR InfiniBand class).
//
// Every node owns a full-duplex NIC. Outgoing messages serialize on the
// sender's transmit lane at min(link bandwidth, per-message rate cap) and
// arrive in the destination's receive mailbox after wire latency plus
// per-message software overhead at both ends. Delivery between a fixed
// (src, dst) pair is FIFO — the non-overtaking property MPI matching relies
// on.
//
// Every transmission takes the same path through a net::Topology
// (docs/TOPOLOGY.md); the default flat single-rail fabric is its zero-hop,
// one-lane case. A fat tree or torus expands the wire into per-hop switch
// traversals over shared-bandwidth links (net/topology.h), routes are chosen
// deterministically per message over the equal-cost candidates
// (net/router.h), and rails > 1 stripes a pair's messages across
// independent NIC injection lanes. Wire jitter, rails and equal-cost paths
// may all reorder a pair's packets; the resequencer at the receiving rail
// mux (net/rail.h) restores each pair's order before packets reach the FIFO
// mailbox stream.
//
// The wire is perfectly reliable by default. Arming a net::FaultConfig
// (any nonzero fault probability) turns it lossy — packets may be dropped,
// duplicated, corrupted, delayed, or eaten by a transient link outage — and
// simultaneously arms the NIC-level go-back-N recovery protocol underneath
// the rail mux, one connection per (src, dst, rail) lane: connection
// sequence numbers, a bounded send window with sender-side retention,
// cumulative acks, timeout + exponential-backoff retransmission, and
// duplicate suppression at the receiver. Upper layers (MPI matching, the
// runtime's eager channel) see the same per-pair FIFO mailbox stream either
// way; only timing differs. With faults disabled there are no headers, no
// fault coins and no timers (DESIGN.md §8).

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "net/fault.h"
#include "net/packet.h"
#include "net/rail.h"
#include "net/router.h"
#include "net/topology.h"
#include "sim/config.h"
#include "sim/mailbox.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace dcuda::net {

class Fabric {
 public:
  Fabric(sim::Simulation& s, int num_nodes, const sim::NetConfig& cfg,
         const FaultConfig& fault = {});

  int num_nodes() const { return static_cast<int>(nics_.size()); }

  // Fire-and-forget: the packet appears in node `dst`'s mailbox. rate_cap
  // narrows usable bandwidth for this packet (GPUDirect reads on Kepler run
  // well below link rate). Reliable regardless of the fault model: an armed
  // FaultConfig only changes *when* the packet lands, never whether.
  void send(Packet p,
            sim::Rate rate_cap = std::numeric_limits<sim::Rate>::infinity());

  // The NIC's own receive mailbox: where `channel` packets for `node` land
  // unless bind_rx installed another sink.
  sim::Mailbox<Packet>& rx(int node, int channel = kMpiChannel) {
    return nics_[static_cast<size_t>(node)]->rx[static_cast<size_t>(channel)];
  }

  // Delivers `channel` packets for `node` straight into `sink` from now on
  // (a rank world's own mailbox, Cluster::build_world); &rx(node, channel)
  // restores the default. With a null sink, packets are dropped and counted
  // in rx_dropped() — a finished job's late traffic must not reach the
  // node's next tenant.
  void bind_rx(int node, int channel, sim::Mailbox<Packet>* sink) {
    nics_[static_cast<size_t>(node)]->sink[static_cast<size_t>(channel)] = sink;
  }
  std::uint64_t rx_dropped() const;

  // Observability: wire-serialization spans and cumulative wire-byte
  // counters on the sender's fabric lane (docs/OBSERVABILITY.md).
  void set_tracer(sim::Tracer* t) { tracer_ = t; }

  double bytes_sent(int node) const { return nics_[static_cast<size_t>(node)]->bytes; }
  std::uint64_t messages_sent(int node) const { return nics_[static_cast<size_t>(node)]->msgs; }
  const sim::NetConfig& config() const { return cfg_; }
  const FaultConfig& fault_config() const { return fault_; }

  // True when any fault probability is nonzero and the go-back-N recovery
  // protocol is running.
  bool faults_armed() const { return armed_; }

  // Topology layer (docs/TOPOLOGY.md); flat and zero-hop by default.
  const Topology& topology() const { return topo_; }
  int rails() const { return rails_; }
  // Cumulative bytes carried by one interior link (congestion diagnostics).
  double link_bytes(int link) const {
    return links_[static_cast<size_t>(link)].bytes;
  }

  // Aggregate fault-injection and recovery counters (docs/TESTING.md
  // "Loss battery"; the fault self-tests and ablation_faults read these).
  // Counters are kept per shard (sender-side events accrue on the source
  // node's shard, receiver-side on the destination's) and merged field-wise
  // on read, so they stay exact under multi-threaded windows.
  struct FaultStats {
    std::uint64_t originals = 0;       // first transmissions of a sequence
    std::uint64_t retransmits = 0;     // go-back-N re-transmissions
    std::uint64_t timeouts = 0;        // retransmit timer expiries
    std::uint64_t drops = 0;           // wire drops (drop_prob)
    std::uint64_t corrupts = 0;        // CRC-detected corruption discards
    std::uint64_t dups = 0;            // duplicate deliveries injected
    std::uint64_t delays = 0;          // delay spikes applied
    std::uint64_t link_downs = 0;      // outage windows opened
    std::uint64_t outage_losses = 0;   // packets lost inside an outage
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_lost = 0;       // acks dropped or eaten by an outage
    std::uint64_t dup_suppressed = 0;  // receiver discarded already-seen seq
    std::uint64_t ooo_discarded = 0;   // receiver discarded past-gap seq
  };
  const FaultStats& fault_stats() const;

 private:
  // One retained outbound packet (go-back-N keeps everything unacked).
  struct Stored {
    Packet pkt;
    sim::Rate cap = std::numeric_limits<sim::Rate>::infinity();
  };

  // Sender-side reliable-connection state toward one destination (one per
  // (destination, rail) lane on a multi-rail fabric).
  struct TxConn {
    std::uint64_t next_seq = 0;   // last assigned sequence
    std::uint64_t acked = 0;      // highest cumulative ack received
    std::deque<Stored> unacked;   // transmitted, not yet acked (seq order)
    std::deque<Stored> backlog;   // waiting for send-window space
    sim::EventId timer;           // pending retransmit timeout
    sim::Dur timeout = 0.0;       // current backed-off timeout; 0 = base
    sim::Time down_until = 0.0;   // transient outage on this directed link
  };

  // Receiver-side state for one (origin, rail): last accepted sequence.
  struct RxConn {
    std::uint64_t expected = 0;
  };

  // Shared-bandwidth interior link: transmissions serialize against
  // `free`. Touched only from the owning switch's shard.
  struct LinkState {
    sim::Time free = 0.0;
    double bytes = 0.0;
  };

  struct Nic {
    Nic(sim::Simulation& s, int num_nodes, int rails)
        : rx{sim::Mailbox<Packet>(s), sim::Mailbox<Packet>(s)},
          sink{&rx[0], &rx[1]},
          rail_sched(rails),
          mux_next(static_cast<size_t>(num_nodes), 0),
          reseq(num_nodes) {}
    double bytes = 0.0;
    std::uint64_t msgs = 0;
    std::array<sim::Mailbox<Packet>, kNumChannels> rx;
    // Bound receive sink per channel (bind_rx) and the packets dropped for
    // want of one; touched only from this node's shard.
    std::array<sim::Mailbox<Packet>*, kNumChannels> sink;
    std::uint64_t rx_dropped = 0;
    // Rail injection lanes + striping, the sender's per-destination mux
    // sequence, and the receive-side rail mux over all origins
    // (net/rail.h).
    RailScheduler rail_sched;
    std::vector<std::uint64_t> mux_next;
    Resequencer<Packet> reseq;
    // Reliable-connection state, allocated only while faults are armed;
    // indexed by peer * rails + rail.
    std::vector<TxConn> tx_conn;  // sender side, per (destination, rail)
    std::vector<RxConn> rx_conn;  // receiver side, per (origin, rail)
  };

  // Select a route for the packet and schedule its first hop (or the direct
  // delivery when the route has no interior links). `tx_end` is when the
  // packet finishes serializing on its injection lane; `extra` carries
  // jitter/delay-spike offsets into the first leg.
  void route_and_launch(Packet pkt, double wire_bytes, sim::Time tx_end,
                        sim::Dur extra, bool reliable);
  // Traverse interior link route->links[idx] in the owning switch's shard.
  void hop(Packet pkt, const Route* route, std::uint32_t idx,
           double wire_bytes, bool reliable);
  // Schedules the packet onto interior link route->links[idx] at `at`, in
  // the shard owning the link.
  void enter_link(Packet pkt, const Route* route, std::uint32_t idx,
                  double wire_bytes, bool reliable, sim::Time at);
  // Schedules the packet's arrival at its destination at `at`: the
  // receiver's go-back-N check when `reliable`, else the rail mux.
  void arrive(Packet pkt, sim::Time at, bool reliable);
  // Receiving rail mux: resequence by mux_seq, then push to the sink.
  void mux_deliver(Packet pkt);
  // Pushes an arrived packet into its destination's bound sink.
  void push_rx(Packet pkt);

  // -- Lossy path (faults armed) ----------------------------------------
  void send_reliable(Packet p, sim::Rate rate_cap);
  void pump(int src, int dst, int rail);       // drain backlog into window
  void transmit(int src, int dst, int rail, const Stored& s, bool is_retx);
  void deliver_reliable(Packet pkt);           // receiver: accept/suppress
  void send_ack(int from, int to, int rail, std::uint64_t acked_seq);
  void handle_ack(int src, int dst, int rail, std::uint64_t acked_seq);
  void arm_timer(int src, int dst, int rail);
  void on_timeout(int src, int dst, int rail);
  TxConn& tx_conn(int src, int dst, int rail) {
    return nics_[static_cast<size_t>(src)]
        ->tx_conn[static_cast<size_t>(dst) * static_cast<size_t>(rails_) +
                  static_cast<size_t>(rail)];
  }
  RxConn& rx_conn(int dst, int src, int rail) {
    return nics_[static_cast<size_t>(dst)]
        ->rx_conn[static_cast<size_t>(src) * static_cast<size_t>(rails_) +
                  static_cast<size_t>(rail)];
  }

  // The executing shard's counter slice (shard 0 outside a run).
  FaultStats& stats() {
    const std::size_t k =
        static_cast<std::size_t>(sim::current_shard_index());
    return stats_shard_[k < stats_shard_.size() ? k : 0];
  }

  sim::Simulation& sim_;
  sim::NetConfig cfg_;
  FaultConfig fault_;
  bool armed_ = false;
  int rails_ = 1;
  sim::Dur hop_ = 0.0;       // per-hop latency
  sim::Rate link_bw_ = 0.0;  // interior link bandwidth
  Topology topo_;
  Router router_;
  std::vector<LinkState> links_;
  std::vector<FaultStats> stats_shard_;
  mutable FaultStats merged_stats_;
  sim::Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Nic>> nics_;
};

}  // namespace dcuda::net
