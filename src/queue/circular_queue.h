#pragma once

// Host↔device circular-buffer queue (§III-C of the paper).
//
// The ring lives in receiver memory. The sender embeds a sequence number in
// every entry, so the receiver detects valid entries without a shared head
// pointer, and one posted transaction suffices per enqueue. Flow control is
// credit based: the sender decrements a local free counter per enqueue and
// only when it reaches zero pays an extra (mapped-read) transaction to fetch
// the receiver's tail pointer.
//
// The queue is functional, not just a timing model: entries really move
// through ring slots guarded by sequence numbers, and the tests exercise
// wrap-around, credit exhaustion, and overwrite protection.

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/invariants.h"
#include "sim/proc.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "sim/trigger.h"

namespace dcuda::queue {

// How enqueue operations reach the receiver's memory. The entry write is
// posted (issuer continues; `commit` fires when the write is visible at the
// receiver); the tail read blocks the issuer for a round trip.
struct Transport {
  // write(bytes, commit): deliver `bytes` and invoke commit() at visibility.
  std::function<sim::Proc<void>(double, std::function<void()>)> write;
  // read_tail(bytes): blocking remote read of the tail pointer.
  std::function<sim::Proc<void>(double)> read_tail;
};

// A zero-cost transport for queues whose both ends live in the same memory.
Transport local_transport(sim::Simulation& s);

template <typename Entry>
class CircularQueue {
 public:
  CircularQueue(sim::Simulation& s, int capacity, Transport transport)
      : sim_(s),
        transport_(std::move(transport)),
        ring_(static_cast<size_t>(capacity)),
        credits_(capacity),
        nonempty_(s) {
    assert(capacity > 0);
  }

  // Observability hook (docs/OBSERVABILITY.md): enqueue commits and
  // dequeues maintain the device-wide `<name>_depth` counter and bump
  // `<name>_enqueues` / `<name>_tail_reads` metrics on the tracer. Many
  // queues may share one (tracer, device, name) triple — the counter then
  // aggregates their occupancy.
  void set_tracer(sim::Tracer* t, std::int32_t device, const std::string& name) {
    tracer_ = t;
    trace_device_ = device;
    depth_counter_ = name + "_depth";
    enqueue_metric_ = name + "_enqueues";
    tail_read_metric_ = name + "_tail_reads";
  }

  // Sender side. Blocks (simulated) while the queue is full; costs one
  // posted write carrying the entry plus its sequence number, and a tail
  // read only when the sender's credits run out.
  sim::Proc<void> enqueue(Entry e) {
    while (credits_ == 0) {
      ++tail_reads_;
      if (traced()) tracer_->bump(tail_read_metric_);
      co_await transport_.read_tail(sizeof(std::uint64_t));
      recompute_credits();
      if (credits_ == 0) co_await sim_.delay(full_poll_interval_);
    }
    --credits_;
    const std::uint64_t seq = ++send_count_;
    if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
      obs->queue_credit(send_count_, recv_count_, capacity());
    }
    ++enqueues_;
    if (traced()) tracer_->bump(enqueue_metric_);
    // Stage the entry into its ring slot right away: holding a credit means
    // the receiver already consumed the slot's previous occupant, and the
    // entry stays invisible until its sequence number is committed below.
    Slot& slot = ring_[static_cast<size_t>((seq - 1) % ring_.size())];
    assert(slot.seq + ring_.size() == seq || slot.seq == 0);
    slot.entry = std::move(e);
    // The commit closure captures two words — small enough for
    // std::function's inline storage, so the posted write allocates nothing.
    const double bytes = sizeof(Entry) + sizeof(std::uint64_t);
    co_await transport_.write(bytes, [this, seq] {
      ring_[static_cast<size_t>((seq - 1) % ring_.size())].seq = seq;
      if (traced()) {
        tracer_->counter_add(sim_.now(), trace_device_, depth_counter_, 1.0);
      }
      nonempty_.notify_all();
    });
  }

  // Receiver side: local memory poll, consumes the head entry if its
  // sequence number matches.
  std::optional<Entry> try_dequeue() {
    Slot& slot = ring_[static_cast<size_t>(recv_count_ % ring_.size())];
    if (slot.seq != recv_count_ + 1) return std::nullopt;
    ++recv_count_;  // the tail pointer, in receiver memory
    if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
      obs->queue_credit(send_count_, recv_count_, capacity());
    }
    if (traced()) {
      tracer_->counter_add(sim_.now(), trace_device_, depth_counter_, -1.0);
    }
    return slot.entry;
  }

  sim::Proc<Entry> dequeue() {
    for (;;) {
      if (auto e = try_dequeue()) co_return *e;
      co_await nonempty_.wait();
    }
  }

  bool empty() const {
    const Slot& slot = ring_[static_cast<size_t>(recv_count_ % ring_.size())];
    return slot.seq != recv_count_ + 1;
  }

  sim::Trigger& nonempty_trigger() { return nonempty_; }

  int capacity() const { return static_cast<int>(ring_.size()); }
  std::uint64_t enqueues() const { return enqueues_; }
  std::uint64_t tail_reads() const { return tail_reads_; }

 private:
  struct Slot {
    std::uint64_t seq = 0;
    Entry entry{};
  };

  void recompute_credits() {
    credits_ = static_cast<int>(static_cast<std::uint64_t>(capacity()) -
                                (send_count_ - recv_count_));
  }

  bool traced() const { return tracer_ != nullptr && tracer_->enabled(); }

  sim::Tracer* tracer_ = nullptr;
  std::int32_t trace_device_ = -1;
  std::string depth_counter_;
  std::string enqueue_metric_;
  std::string tail_read_metric_;

  sim::Simulation& sim_;
  Transport transport_;
  std::vector<Slot> ring_;
  std::uint64_t send_count_ = 0;  // sender-side
  std::uint64_t recv_count_ = 0;  // receiver-side tail
  int credits_;
  std::uint64_t enqueues_ = 0;
  std::uint64_t tail_reads_ = 0;
  sim::Dur full_poll_interval_ = sim::micros(2.0);
  sim::Trigger nonempty_;
};

}  // namespace dcuda::queue
