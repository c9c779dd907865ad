#include "net/fabric.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/invariants.h"
#include "sim/perturb.h"

namespace dcuda::net {

Fabric::Fabric(sim::Simulation& s, int num_nodes, const sim::NetConfig& cfg,
               const FaultConfig& fault)
    : sim_(s),
      cfg_(cfg),
      fault_(fault),
      armed_(fault.any()),
      rails_(cfg_.topo.rails),
      hop_(cfg_.topo.hop_latency),
      link_bw_(cfg_.topo.link_bandwidth > 0.0 ? cfg_.topo.link_bandwidth
                                              : cfg_.bandwidth),
      topo_(num_nodes, cfg_.topo),
      router_(topo_),
      links_(static_cast<size_t>(topo_.num_links())) {
  assert(fault_.window >= 1);
  // Go-back-N needs *some* success probability.
  assert(fault_.drop_prob < 1.0 && fault_.corrupt_prob < 1.0 &&
         fault_.link_down_prob < 1.0);
  // Inter-shard events are delayed by at least the wire latency — or, on a
  // multi-hop topology, the per-hop latency — which makes it the engine's
  // conservative lookahead (docs/PERF.md, "Parallel engine"). A flat
  // fabric has no interior hops, so it keeps the wire bound.
  s.register_lookahead(topo_.num_links() > 0 ? std::min(cfg_.latency, hop_)
                                             : cfg_.latency);
  nics_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    // Build each NIC in its node's shard so the mailbox triggers acquire
    // the right owner shard for the parallel-window affinity checks.
    sim::ShardGuard guard(s, s.shard_for(i));
    nics_.push_back(std::make_unique<Nic>(s, num_nodes, rails_));
    if (armed_) {
      // Built in place: a TxConn retains move-only packets, so it cannot be
      // relocated by a resize.
      nics_.back()->tx_conn = std::vector<TxConn>(static_cast<size_t>(num_nodes) *
                                                  static_cast<size_t>(rails_));
      nics_.back()->rx_conn.resize(static_cast<size_t>(num_nodes) *
                                   static_cast<size_t>(rails_));
    }
  }
}

Fabric::FaultStats Fabric::fault_stats() const {
  FaultStats m;
  for (const auto& nic : nics_) {
    const FaultStats& s = nic->faults;
    m.originals += s.originals;
    m.retransmits += s.retransmits;
    m.timeouts += s.timeouts;
    m.drops += s.drops;
    m.corrupts += s.corrupts;
    m.dups += s.dups;
    m.delays += s.delays;
    m.link_downs += s.link_downs;
    m.outage_losses += s.outage_losses;
    m.acks_sent += s.acks_sent;
    m.acks_lost += s.acks_lost;
    m.dup_suppressed += s.dup_suppressed;
    m.ooo_discarded += s.ooo_discarded;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Send path (docs/TOPOLOGY.md).
//
// A transmission serializes on its rail's injection lane, then walks its
// route hop by hop: every interior link is traversed by an event in the
// shard owning the link's upstream switch, serializing against the link's
// shared-bandwidth clock, and each hop adds the per-hop latency (which is
// why the engine's lookahead shrinks to it). A route without interior links
// — every pair of the default flat fabric — is one direct wire leg. The
// final leg lands in the destination's shard at the rail mux, which
// restores per-(src, dst) mux order before the mailbox push — so upper
// layers keep the exact FIFO contract while jitter, rails and equal-cost
// paths reorder the wire freely underneath.

void Fabric::send(Packet p, sim::Rate rate_cap) {
  Envelope& e = p.env();
  assert(e.src >= 0 && e.src < num_nodes());
  assert(e.dst >= 0 && e.dst < num_nodes());
  Nic& tx = *nics_[static_cast<size_t>(e.src)];
  e.mux_seq = ++tx.mux_next[static_cast<size_t>(e.dst)];
  e.rail = tx.rail_sched.pick(e.mux_seq);
  if (armed_) {
    send_reliable(std::move(p), rate_cap);
    return;
  }
  const double bytes = e.bytes;
  const sim::Time end =
      inject(e.src, e.rail, bytes, rate_cap, /*is_retx=*/false).second;
  sim::Dur extra = 0.0;
  if (sim::Perturbation* pert = sim_.perturbation(); pert != nullptr) {
    // Bounded extra wire delay (congestion, adaptive routing). No per-pair
    // clamp: the rail mux resequences, so jitter may reorder the wire.
    extra = pert->jitter(cfg_.latency);
  }
  route_and_launch(std::move(p), bytes, end, extra);
}

std::pair<sim::Time, sim::Time> Fabric::inject(int src, int rail,
                                               double wire_bytes,
                                               sim::Rate rate_cap,
                                               bool is_retx) {
  Nic& tx = *nics_[static_cast<size_t>(src)];
  const sim::Rate rate = std::min(cfg_.bandwidth, rate_cap);
  // Sender software overhead delays wire entry; transmissions serialize.
  sim::Time& lane = tx.rail_sched.lane(rail);
  const sim::Time start = std::max(sim_.now() + cfg_.sw_overhead, lane);
  const sim::Time end = start + wire_bytes / rate;
  lane = end;
  tx.bytes += wire_bytes;
  ++tx.msgs;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->record(sim::TraceSpan{start, end, src, sim::kFabricLane,
                                   is_retx ? "retx" : "tx",
                                   sim::Category::kFabric, wire_bytes});
    tracer_->counter_set(end, src, "wire_bytes", tx.bytes);
    tracer_->bump(is_retx ? "fabric_retransmits" : "fabric_messages");
    tracer_->bump("fabric_bytes", wire_bytes);
  }
  return {start, end};
}

void Fabric::route_and_launch(Packet pkt, double wire_bytes, sim::Time tx_end,
                              sim::Dur extra) {
  const Envelope& e = pkt.env();
  const int path = router_.select(e.src, e.dst, e.mux_seq, sim_.perturbation());
  const Route* route = &topo_.paths(e.src, e.dst)[static_cast<size_t>(path)];
  if (route->links.empty()) {
    // No interior hops (flat fabric or loopback): direct wire delivery.
    arrive(std::move(pkt), tx_end + cfg_.latency + cfg_.sw_overhead + extra);
    return;
  }
  if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
    obs->route_selected(e.src, e.dst, route->switches);
  }
  enter_link(std::move(pkt), route, 0, wire_bytes, tx_end + hop_ + extra);
}

// The packet handle keeps both cross-shard callables within an event
// slot's inline buffer, so they stage without allocating.
void Fabric::enter_link(Packet pkt, const Route* route, std::uint32_t idx,
                        double wire_bytes, sim::Time at) {
  const int owner = topo_.link_owner(route->links[idx]);
  sim_.schedule_on(sim_.shard_for(owner), at - sim_.now(),
                   [this, route, wire_bytes, pkt = std::move(pkt),
                    idx]() mutable {
                     hop(std::move(pkt), route, idx, wire_bytes);
                   });
}

void Fabric::arrive(Packet pkt, sim::Time at) {
  const int shard = sim_.shard_for(pkt.dst());
  sim_.schedule_on(shard, at - sim_.now(),
                   [this, pkt = std::move(pkt)]() mutable {
                     if (armed_) {
                       deliver_reliable(std::move(pkt));
                     } else {
                       mux_deliver(std::move(pkt));
                     }
                   });
}

void Fabric::hop(Packet pkt, const Route* route, std::uint32_t idx,
                 double wire_bytes) {
  LinkState& link = links_[static_cast<size_t>(route->links[idx])];
  // Shared link: transmissions serialize at the interior link bandwidth.
  // The mutation knob lets every packet pretend the link is idle — the
  // link-capacity oracle must catch the resulting overlap.
  const sim::Time start = cfg_.topo.account_capacity
                              ? std::max(sim_.now(), link.free)
                              : sim_.now();
  const sim::Time end = start + wire_bytes / link_bw_;
  if (cfg_.topo.account_capacity) link.free = end;
  link.bytes += wire_bytes;
  if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
    obs->link_transmission(route->links[idx], start, end);
  }
  const std::uint32_t next = idx + 1;
  if (next < route->links.size()) {
    enter_link(std::move(pkt), route, next, wire_bytes, end + hop_);
    return;
  }
  arrive(std::move(pkt), end + hop_ + cfg_.sw_overhead);
}

std::uint64_t Fabric::rx_dropped() const {
  std::uint64_t n = 0;
  for (const auto& nic : nics_) n += nic->rx_dropped;
  return n;
}

void Fabric::push_rx(Packet pkt) {
  Nic& rx = *nics_[static_cast<size_t>(pkt.dst())];
  sim::Mailbox<Packet>* sink = rx.sink;
  if (sink == nullptr) {
    ++rx.rx_dropped;
    return;
  }
  sink->push(std::move(pkt));
}

void Fabric::mux_deliver(Packet pkt) {
  Nic& rx = *nics_[static_cast<size_t>(pkt.dst())];
  auto push = [this](Packet q) {
    if (sim::InvariantObserver* obs = sim_.invariant_observer();
        obs != nullptr) {
      obs->fabric_delivered(q.src(), q.dst(), q.env().mux_seq);
    }
    push_rx(std::move(q));
  };
  if (!cfg_.topo.resequence) {
    // Mutation knob: bypass the mux. Jitter and cross-rail skew now reach
    // the mailbox out of order, which the FIFO/non-overtaking oracle must
    // catch (docs/TESTING.md mutation checks).
    push(std::move(pkt));
    return;
  }
  const int src = pkt.src();
  const std::uint64_t mux_seq = pkt.env().mux_seq;
  rx.reseq.offer(src, mux_seq, std::move(pkt), push);
}

// ---------------------------------------------------------------------------
// Lossy path: go-back-N reliable delivery (DESIGN.md §8).
//
// Every (src, dst) direction is a connection — one per rail on a multi-rail
// fabric. send() assigns the next connection sequence and queues the packet;
// pump() transmits while the send window has space, retaining a copy of
// everything unacked. Each arrival at the receiver returns a cumulative ack;
// a retransmit timer at the sender resends the whole window on expiry with
// exponential backoff. The receiver accepts only the next expected sequence
// — duplicates are suppressed, past-gap arrivals discarded (classic
// go-back-N, no reorder buffer) — so each rail's accepted stream is
// exactly-once and in order. Accepted packets then pass through the rail
// mux, which restores the cross-rail mux order on top of the per-rail
// guarantee.

void Fabric::send_reliable(Packet p, sim::Rate rate_cap) {
  Envelope& e = p.env();
  TxConn& c = tx_conn(e.src, e.dst, e.rail);
  e.seq = ++c.next_seq;
  const int src = e.src;
  const int dst = e.dst;
  const int rail = e.rail;
  c.backlog.push_back(Stored{std::move(p), rate_cap});
  pump(src, dst, rail);
}

void Fabric::pump(int src, int dst, int rail) {
  TxConn& c = tx_conn(src, dst, rail);
  while (!c.backlog.empty() &&
         c.unacked.size() < static_cast<size_t>(fault_.window)) {
    c.unacked.push_back(std::move(c.backlog.front()));
    c.backlog.pop_front();
    transmit(src, dst, rail, c.unacked.back(), /*is_retx=*/false);
  }
  if (fault_.retransmit && !c.unacked.empty() && !sim_.pending(c.timer)) {
    arm_timer(src, dst, rail);
  }
}

void Fabric::transmit(int src, int dst, int rail, const Stored& s,
                      bool is_retx) {
  FaultStats& stats = nics_[static_cast<size_t>(src)]->faults;
  TxConn& c = tx_conn(src, dst, rail);
  const double wire_bytes = s.pkt.bytes() + fault_.header_bytes;
  const auto [start, end] = inject(src, rail, wire_bytes, s.cap, is_retx);
  if (is_retx) {
    ++stats.retransmits;
  } else {
    ++stats.originals;
  }
  if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
    obs->fabric_packet_sent(src, dst, s.pkt.env().seq, is_retx, rail);
  }

  // Fault coins, drawn in a fixed order per transmission regardless of
  // earlier outcomes, so the kFault stream position depends only on the
  // transmission count — replaying a seed replays every decision.
  sim::Perturbation* pert = sim_.perturbation();
  const bool down = pert != nullptr && pert->fault(fault_.link_down_prob);
  const bool corrupt = pert != nullptr && pert->fault(fault_.corrupt_prob);
  const bool drop = pert != nullptr && pert->fault(fault_.drop_prob);
  const bool dup = pert != nullptr && pert->fault(fault_.dup_prob);
  const bool delay = pert != nullptr && pert->fault(fault_.delay_prob);

  if (down) {
    // Transient outage opens (or extends) as this packet enters the wire;
    // the packet itself is its first casualty.
    c.down_until = std::max(c.down_until, start + fault_.link_down_duration);
    ++stats.link_downs;
  }
  const bool in_outage = start < c.down_until;
  if (in_outage || drop || corrupt) {
    if (in_outage) {
      ++stats.outage_losses;
    } else if (drop) {
      ++stats.drops;
    } else {
      // Corruption is detected by the receiver's CRC and the packet is
      // discarded header and all — indistinguishable from a wire drop at
      // protocol level (no ack), so it is not even scheduled.
      ++stats.corrupts;
    }
    if (sim::InvariantObserver* obs = sim_.invariant_observer();
        obs != nullptr) {
      obs->fabric_packet_dropped(src, dst, s.pkt.env().seq, rail);
    }
    return;  // the retransmit timer recovers it
  }

  sim::Time deliver = end + cfg_.latency + cfg_.sw_overhead;
  if (pert != nullptr) deliver += pert->jitter(cfg_.latency);
  if (delay) {
    deliver += fault_.delay_spike;
    ++stats.delays;
  }
  // Jitter and delay spikes stretch the first leg. Retransmissions re-select
  // their route, so an adaptive fabric may route a retry around the path
  // that lost the original. No per-pair FIFO clamp: faults reorder the wire
  // freely and the receiver's sequence check restores order instead.
  const sim::Dur extra = deliver - (end + cfg_.latency + cfg_.sw_overhead);
  route_and_launch(s.pkt.clone(), wire_bytes, end, extra);
  if (dup) {
    ++stats.dups;
    route_and_launch(s.pkt.clone(), wire_bytes, end,
                     extra + sim::Perturbation::kOrderEpsilon);
  }
}

void Fabric::deliver_reliable(Packet pkt) {
  const int src = pkt.src();
  const int dst = pkt.dst();
  const int rail = pkt.env().rail;
  const std::uint64_t seq = pkt.env().seq;
  RxConn& rc = rx_conn(dst, src, rail);
  if (seq == rc.expected + 1) {
    ++rc.expected;
    if (sim::InvariantObserver* obs = sim_.invariant_observer();
        obs != nullptr) {
      obs->fabric_packet_accepted(src, dst, seq, rail);
    }
    // Per-rail order restored; the rail mux restores cross-rail order.
    mux_deliver(std::move(pkt));
  } else if (seq <= rc.expected) {
    if (fault_.dup_suppress) {
      ++nics_[static_cast<size_t>(dst)]->faults.dup_suppressed;
    } else {
      // Mutation knob: deliver the duplicate anyway. The at-most-once
      // oracle must catch this (docs/TESTING.md mutation checks). Bypasses
      // the mux — a repeated mux sequence would wedge the resequencer.
      if (sim::InvariantObserver* obs = sim_.invariant_observer();
          obs != nullptr) {
        obs->fabric_packet_accepted(src, dst, seq, rail);
      }
      push_rx(std::move(pkt));
    }
  } else {
    // Gap: a predecessor was lost. Go-back-N keeps no reorder buffer — the
    // sender retransmits the whole window, so discarding is safe.
    ++nics_[static_cast<size_t>(dst)]->faults.ooo_discarded;
  }
  // Every intact arrival — accepted, duplicate, or past-gap — refreshes the
  // sender with a cumulative ack of the receive frontier.
  send_ack(dst, src, rail, rc.expected);
}

void Fabric::send_ack(int from, int to, int rail, std::uint64_t acked_seq) {
  FaultStats& stats = nics_[static_cast<size_t>(from)]->faults;
  ++stats.acks_sent;
  // Acks ride the NIC's control path: no transmit-lane serialization and no
  // byte accounting (they coalesce with data in real hardware), but they do
  // face the lossy wire — the reverse link's outage window and the same
  // drop/delay coins as data.
  TxConn& reverse = tx_conn(from, to, rail);
  sim::Perturbation* pert = sim_.perturbation();
  const bool drop = pert != nullptr && pert->fault(fault_.drop_prob);
  const bool delay = pert != nullptr && pert->fault(fault_.delay_prob);
  if (drop || sim_.now() < reverse.down_until) {
    ++stats.acks_lost;
    return;  // the retransmit timer covers lost acks too
  }
  sim::Time deliver = sim_.now() + cfg_.latency + cfg_.sw_overhead;
  if (delay) deliver += fault_.delay_spike;
  // Ack processing mutates the original sender's connection state, so it
  // runs in that node's shard.
  sim_.schedule_on(sim_.shard_for(to), deliver - sim_.now(),
                   [this, from, to, rail, acked_seq]() {
                     handle_ack(to, from, rail, acked_seq);
                   });
}

void Fabric::handle_ack(int src, int dst, int rail, std::uint64_t acked_seq) {
  TxConn& c = tx_conn(src, dst, rail);
  if (acked_seq <= c.acked) return;  // stale cumulative ack
  c.acked = acked_seq;
  while (!c.unacked.empty() && c.unacked.front().pkt.env().seq <= acked_seq) {
    c.unacked.pop_front();
  }
  c.timeout = 0.0;  // forward progress resets the backoff
  sim_.cancel(c.timer);
  pump(src, dst, rail);  // opens window space; also re-arms the timer if needed
}

void Fabric::arm_timer(int src, int dst, int rail) {
  TxConn& c = tx_conn(src, dst, rail);
  const sim::Dur t = c.timeout > 0.0 ? c.timeout : fault_.retransmit_timeout;
  // No ack can arrive before the newest unacked packet has fully serialized
  // onto the wire, so count the tx-lane backlog into the deadline — a large
  // packet (64 kB at the GPUDirect cap serializes for ~20 us) must not trip
  // a spurious retransmission of itself.
  const sim::Time lane =
      nics_[static_cast<size_t>(src)]->rail_sched.lane(rail);
  const sim::Dur backlog = lane > sim_.now() ? lane - sim_.now() : 0.0;
  sim_.cancel(c.timer);
  c.timer = sim_.schedule_cancellable(backlog + t, [this, src, dst, rail]() {
    on_timeout(src, dst, rail);
  });
}

void Fabric::on_timeout(int src, int dst, int rail) {
  TxConn& c = tx_conn(src, dst, rail);
  if (c.unacked.empty()) return;
  ++nics_[static_cast<size_t>(src)]->faults.timeouts;
  // Go-back-N: resend the entire unacked window in sequence order.
  for (const Stored& s : c.unacked) {
    transmit(src, dst, rail, s, /*is_retx=*/true);
  }
  const sim::Dur cur = c.timeout > 0.0 ? c.timeout : fault_.retransmit_timeout;
  c.timeout = std::min(cur * fault_.backoff, fault_.max_timeout);
  arm_timer(src, dst, rail);
}

}  // namespace dcuda::net
