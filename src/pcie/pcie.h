#pragma once

// Transaction-level PCI-Express link model.
//
// Two independent simplex directions (host→device, device→host), each
// serializing its traffic. Three operation classes, matching §III-C of the
// paper:
//  * posted mapped writes (gdrcopy-style): the issuer pays a small issue
//    cost and continues; the data becomes visible at the other side after
//    serialization + transaction latency. Posted writes in one direction
//    commit in issue order (PCIe ordering rules).
//  * mapped reads: the issuer blocks for a round trip.
//  * DMA transfers: startup latency (engine setup) + serialization at link
//    bandwidth; the issuer blocks until completion.

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/config.h"
#include "sim/proc.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace dcuda::pcie {

enum class Dir { kHostToDevice = 0, kDeviceToHost = 1 };

class PcieLink {
 public:
  PcieLink(sim::Simulation& s, const sim::PcieConfig& cfg)
      : sim_(s), cfg_(cfg) {}
  PcieLink(const PcieLink&) = delete;
  PcieLink& operator=(const PcieLink&) = delete;

  // Posted mapped write: issuer pays cfg.post_cost, `on_visible` fires at
  // the far side after serialization + txn latency, in issue order. The
  // callable goes straight into its event slot (inline when it fits).
  template <typename F>
  sim::Proc<void> post_write(Dir d, double bytes, F on_visible) {
    const sim::Time visible = post_visible_at(d, bytes);
    sim_.schedule(visible - sim_.now(), std::move(on_visible));
    co_await sim_.delay(cfg_.post_cost);
  }

  // Device→NIC doorbell (RuntimeBackend::kDeviceInitiated): a posted mapped
  // write of a command descriptor that rings the NIC's command processor.
  // Timing and ordering are exactly post_write — doorbells share the lane's
  // in-order visibility clamp with every other posted write — but the
  // transaction is counted and traced separately ("doorbell" spans on the
  // NIC lane, docs/OBSERVABILITY.md) so --trace output distinguishes
  // doorbell rings from generic queue writes.
  sim::Proc<void> doorbell(Dir d, double bytes, std::function<void()> on_ring);

  // Blocking mapped read of `bytes` flowing in direction `d` (the direction
  // the *data* travels); round-trip latency.
  sim::Proc<void> mapped_read(Dir d, double bytes);

  // Blocking DMA transfer.
  sim::Proc<void> dma(Dir d, double bytes);

  // Observability: lane-occupancy spans ("h2d"/"d2h") and cumulative
  // `pcie_bytes` counters for the owning node (docs/OBSERVABILITY.md).
  void set_tracer(sim::Tracer* t, std::int32_t node) {
    tracer_ = t;
    trace_node_ = node;
  }

  // Statistics (ablation_queue counts transactions per enqueue).
  std::uint64_t transactions(Dir d) const { return lane(d).txns; }
  std::uint64_t doorbells() const { return doorbells_; }
  double bytes_transferred(Dir d) const { return lane(d).bytes; }
  const sim::PcieConfig& config() const { return cfg_; }

 private:
  struct Lane {
    sim::Time free_at = 0.0;
    // Latest posted-write visibility time, the clamp that keeps posted
    // writes committing in issue order under completion jitter.
    sim::Time visible_free = 0.0;
    std::uint64_t txns = 0;
    double bytes = 0.0;
  };
  Lane& lane(Dir d) { return lanes_[static_cast<int>(d)]; }
  const Lane& lane(Dir d) const { return lanes_[static_cast<int>(d)]; }

  // Reserves the lane for `bytes` and returns the completion time of the
  // serialization (before latency).
  sim::Time serialize(Dir d, double bytes);

  // Reserves the lane for a posted write of `bytes` and returns when it
  // becomes visible at the far side.
  sim::Time post_visible_at(Dir d, double bytes);

  // Seed-derived extra completion latency for blocking transfers (0 when no
  // perturbation is installed).
  sim::Dur completion_jitter();

  sim::Simulation& sim_;
  sim::PcieConfig cfg_;
  sim::Tracer* tracer_ = nullptr;
  std::int32_t trace_node_ = -1;
  Lane lanes_[2];
  std::uint64_t doorbells_ = 0;
};

}  // namespace dcuda::pcie
