#pragma once

// Lossy-fabric fault model (DESIGN.md §8, docs/TESTING.md "Loss battery").
//
// A FaultConfig describes what the interconnect may do to a packet between
// the sender's transmit lane and the receiver's NIC: drop it, deliver it
// twice, corrupt it (detected by the NIC's CRC and discarded), delay it past
// its successors, or hit a transient per-link outage window. All decisions
// are coins drawn from the kFault splitmix64 stream of the run's
// sim::Perturbation, so a faulty run replays bit-identically from its seed.
//
// Any nonzero probability arms the NIC-level go-back-N retransmission
// protocol in net::Fabric (per-connection send window, sequence/ack headers,
// timeout + exponential-backoff retransmit, duplicate suppression), which
// restores the exactly-once in-order delivery contract the runtime's
// notified-access machinery assumes. With every probability at zero the
// fabric adds nothing: no headers, no draws, no timers. Drop, corrupt and
// link-down must stay below 1 (ClusterSpec::validate and the DCUDA_FAULT_*
// parser enforce it) — a packet that is always lost is never delivered.

#include <cstdint>

#include "sim/units.h"

namespace dcuda::net {

struct FaultConfig {
  // -- Injected faults (per transmitted packet unless noted) -------------
  double drop_prob = 0.0;     // packet vanishes on the wire
  double dup_prob = 0.0;      // packet is delivered twice
  double corrupt_prob = 0.0;  // payload damaged; receiver CRC discards it
  double delay_prob = 0.0;    // delivery delayed by delay_spike (reordering)
  sim::Dur delay_spike = sim::micros(40.0);
  // Transient outage: with link_down_prob (per transmitted packet) the
  // (src, dst) link goes dark for link_down_duration; everything entering
  // the wire in that window — data and acks — is lost.
  double link_down_prob = 0.0;
  sim::Dur link_down_duration = sim::micros(25.0);

  // -- Go-back-N recovery protocol ---------------------------------------
  // Send window per (src, dst) connection: packets beyond it queue at the
  // sender until a cumulative ack opens space.
  int window = 8;
  // Base retransmit timeout (should exceed one RTT: ~2x(latency +
  // sw_overhead) + serialization), doubled per expiry up to max_timeout.
  sim::Dur retransmit_timeout = sim::micros(12.0);
  double backoff = 2.0;
  sim::Dur max_timeout = sim::micros(200.0);
  // Wire overhead of the sequence/ack header carried by every data packet
  // while the protocol is armed, and of a standalone cumulative ack.
  double header_bytes = 12.0;
  double ack_bytes = 16.0;

  // -- Mutation knobs (docs/TESTING.md mutation checks) ------------------
  // Knock out one recovery mechanism to prove the loss battery notices:
  // without retransmission the loss fuzz fails conservation; without
  // duplicate suppression the at-most-once oracle fires.
  bool retransmit = true;
  bool dup_suppress = true;

  // True when any fault can fire; arms the recovery protocol.
  bool any() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || corrupt_prob > 0.0 ||
           delay_prob > 0.0 || link_down_prob > 0.0;
  }
};

}  // namespace dcuda::net
