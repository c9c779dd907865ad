#pragma once

// Multi-rail NIC lanes and the receive-side rail mux (docs/TOPOLOGY.md).
//
// A node with R rails has R independent injection lanes at full NIC
// bandwidth. Messages stripe across rails round-robin by per-(src, dst)
// mux sequence, so consecutive messages of one connection leave on
// different rails and may arrive out of order — different rails, different
// ECMP paths, different congestion. The rail mux at the receiver restores
// the connection order before packets reach the per-pair FIFO mailbox
// stream: the go-back-N layer already guarantees per-rail in-order
// delivery, so the mux only reorders *across* rails (ISSUE: the
// resequencing contract). Holding a buffer is safe — every mux sequence
// eventually arrives, lossy or not, because the reliability layer below
// never gives up on a packet.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/units.h"

namespace dcuda::net {

// Sender-side rail state: per-rail transmit-lane clocks plus the striping
// policy. Lives in the NIC, touched only from the source node's shard.
class RailScheduler {
 public:
  explicit RailScheduler(int rails);

  int rails() const { return static_cast<int>(free_.size()); }
  // Round-robin striping by connection mux sequence (1-based).
  int pick(std::uint64_t mux_seq) const {
    return static_cast<int>((mux_seq - 1) %
                            static_cast<std::uint64_t>(free_.size()));
  }
  // The rail's transmit lane: busy-until clock, serialized per rail.
  sim::Time& lane(int rail) { return free_[static_cast<std::size_t>(rail)]; }

 private:
  std::vector<sim::Time> free_;
};

// Receive-side rail mux: releases each origin's packets in strict mux
// sequence order (1, 2, 3, ...), buffering gaps. One instance per
// destination NIC, touched only from that node's shard. Per origin it keeps
// just the next expected sequence; out-of-order arrivals from every origin
// share one gap buffer, which stays empty (and unallocated) until a packet
// actually arrives early.
template <typename P>
class Resequencer {
 public:
  explicit Resequencer(int origins)
      : next_(static_cast<std::size_t>(origins), 1) {}

  // Offers a packet from `origin`; calls `release(P&&)` for every packet
  // that is now in order (possibly none, possibly several when a gap
  // closes). An in-order arrival with nothing buffered goes straight
  // through.
  template <typename F>
  void offer(int origin, std::uint64_t seq, P pkt, F&& release) {
    std::uint64_t& next = next_[static_cast<std::size_t>(origin)];
    if (seq != next) {
      // seq < next cannot happen under the reliability contract (per-rail
      // exactly-once + unique mux sequences); buffering it would wedge the
      // stream, so the map keyed on (origin, seq) simply keeps the latest.
      held_.insert_or_assign(Key{origin, seq}, std::move(pkt));
      return;
    }
    release(std::move(pkt));
    ++next;
    if (held_.empty()) return;
    auto it = held_.find(Key{origin, next});
    while (it != held_.end() && it->first == Key{origin, next}) {
      release(std::move(it->second));
      it = held_.erase(it);
      ++next;
    }
  }

  std::uint64_t released(int origin) const {
    return next_[static_cast<std::size_t>(origin)] - 1;
  }
  std::size_t buffered() const { return held_.size(); }

 private:
  using Key = std::pair<int, std::uint64_t>;  // (origin, mux sequence)
  std::vector<std::uint64_t> next_;           // per origin
  std::map<Key, P> held_;
};

}  // namespace dcuda::net
