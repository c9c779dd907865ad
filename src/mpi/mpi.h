#pragma once

// Host-side nonblocking message-passing library over the network fabric —
// the MPI subset the dCUDA runtime and the MPI-CUDA baseline are built on.
//
// Semantics follow MPI where it matters here:
//  * isend/irecv with (source, tag) matching, wildcards, and non-overtaking
//    order per (source, destination) pair;
//  * eager protocol below `eager_limit` (payload travels with the envelope
//    and is buffered unexpected if no recv is posted), rendezvous (RTS/CTS)
//    above;
//  * CUDA-awareness: device buffers are transferred directly (GPUDirect
//    read, capped at the slow Kepler peer-read bandwidth) or, above
//    `device_staging_threshold`, staged through host memory in pipelined
//    chunks at full link bandwidth — the trade-off the paper's stencil
//    discussion (§IV-C) hinges on;
//  * data really moves: completions memcpy payload bytes into the
//    destination buffer;
//  * a message longer than the matching receive buffer raises
//    TruncationError (MPI_ERR_TRUNCATE) before any byte is written.
//
// Each wire message is one net::Packet whose header is the Wire descriptor
// and whose payload buffer holds the message bytes; requests live in pooled
// blocks, so a message in steady state allocates nothing (docs/PERF.md,
// "Message path").

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gpu/device.h"
#include "gpu/mem.h"
#include "net/fabric.h"
#include "sim/config.h"
#include "sim/mailbox.h"
#include "sim/proc.h"
#include "sim/simulation.h"
#include "sim/trigger.h"

namespace dcuda::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

// A message arrived that is longer than the receive buffer it matched.
// Raised at the match, before any byte is written; it escapes the process
// that matched (the receiver's, or the endpoint's rx loop) and surfaces
// from Simulation::run like any process exception.
class TruncationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Endpoint;

class Request {
 public:
  Request() = default;
  bool valid() const { return static_cast<bool>(st_); }
  bool done() const;
  // Completion source/tag (meaningful for wildcard receives).
  int source() const;
  int tag() const;
  sim::Proc<void> wait();

 private:
  friend class Endpoint;
  struct State;
  explicit Request(std::shared_ptr<State> st) : st_(std::move(st)) {}
  std::shared_ptr<State> st_;
};

sim::Proc<void> wait_all(std::vector<Request> reqs);

// One communication endpoint per rank. Ranks index the world's node list
// (rank -> physical fabric node), which `phys` applies at the wire; every
// wire struct carries ranks, so a job-scoped world (cluster::Scheduler,
// docs/CLUSTER.md) keeps its protocol state placement-independent. `rx` is
// the mailbox the endpoint consumes: the fabric delivers its node's MPI
// channel there (Fabric::bind_rx, Cluster::build_world).
class Endpoint {
 public:
  Endpoint(sim::Simulation& s, net::Fabric& fabric, int rank,
           std::span<const int> nodes, sim::Mailbox<net::Packet>& rx,
           const sim::MpiConfig& cfg, gpu::Device* device);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(nodes_.size()); }
  // Physical fabric node of a rank.
  int phys(int rank) const { return nodes_[static_cast<size_t>(rank)]; }

  Request isend(int dst, int tag, gpu::MemRef buf);
  Request irecv(int src, int tag, gpu::MemRef buf);
  sim::Proc<void> send(int dst, int tag, gpu::MemRef buf);
  sim::Proc<void> recv(int src, int tag, gpu::MemRef buf);

  // Collective over all endpoints (centralized at rank 0).
  sim::Proc<void> barrier();

  std::uint64_t staged_transfers() const { return staged_; }
  std::uint64_t direct_device_transfers() const { return direct_dev_; }

 private:
  struct Wire;      // packet header of every MPI message
  struct CtsState;  // rendezvous send blocked on clear-to-send
  using StatePtr = std::shared_ptr<Request::State>;
  // A rendezvous receive whose CTS went out, keyed by (source rank, sender
  // msg id) — message ids are only unique per sender.
  struct Inflight {
    int src;
    std::uint64_t msg_id;
    StatePtr recv;
  };

  StatePtr new_request();
  // A packet to `dst` carrying header `w` and a copy of `n` bytes at `data`.
  net::Packet packet(int dst, const Wire& w, const std::byte* data,
                     std::size_t n, double wire_bytes) const;
  sim::Proc<void> rx_loop();
  sim::Proc<void> send_body(int dst, int tag, gpu::MemRef buf, StatePtr st);
  sim::Proc<void> send_data(int dst, std::uint64_t msg_id, gpu::MemRef buf,
                            StatePtr st);
  void handle(net::Packet p);
  // Binds an arriving message to the receive it matched (source, tag,
  // length); throws TruncationError if it does not fit.
  static void accept(Request::State& r, const Wire& w);
  // Accepts an RTS into `r` and grants it.
  void grant(StatePtr r, const Wire& w);
  void deliver_fragment(net::Packet p, const Wire& w);
  sim::Proc<void> finish_fragment(StatePtr r, net::Packet p);
  // Finds and removes the first matching posted receive; nullptr if none.
  StatePtr match_posting(int src, int tag);
  sim::Proc<void> complete_into(StatePtr r, net::Packet p);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  int rank_;
  std::span<const int> nodes_;  // owned by the World
  sim::Mailbox<net::Packet>& rx_;
  sim::MpiConfig cfg_;
  gpu::Device* device_;

  std::vector<StatePtr> postings_;            // posted receives, in order
  std::vector<net::Packet> unexpected_;       // eager messages and RTSs
  std::vector<Inflight> inflight_;
  std::vector<std::pair<std::uint64_t, CtsState*>> awaiting_cts_;  // by msg id
  std::uint64_t next_msg_id_ = 1;

  // Barrier bookkeeping (rank 0 collects, then releases).
  int barrier_arrivals_ = 0;
  int target_arrivals_ = 0;
  std::uint64_t barrier_epoch_ = 0;
  std::uint64_t barrier_waits_ = 0;
  std::unique_ptr<sim::Trigger> barrier_release_;

  std::uint64_t staged_ = 0;
  std::uint64_t direct_dev_ = 0;
};

// Owns one endpoint per entry of `nodes` (rank -> physical fabric node),
// each consuming its entry of `rx` and driving its entry of `devices` (a
// shorter list leaves the remaining endpoints without a device).
class World {
 public:
  World(sim::Simulation& s, net::Fabric& fabric, const sim::MpiConfig& cfg,
        const std::vector<gpu::Device*>& devices, std::vector<int> nodes,
        const std::vector<sim::Mailbox<net::Packet>*>& rx);
  Endpoint& at(int rank) { return *endpoints_[static_cast<size_t>(rank)]; }
  int size() const { return static_cast<int>(endpoints_.size()); }

 private:
  std::vector<int> nodes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace dcuda::mpi
