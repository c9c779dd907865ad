#include "pcie/pcie.h"

#include <algorithm>

namespace dcuda::pcie {

sim::Time PcieLink::serialize(Dir d, double bytes) {
  Lane& l = lane(d);
  const sim::Time start = std::max(sim_.now(), l.free_at);
  const sim::Time end = start + bytes / cfg_.bandwidth;
  l.free_at = end;
  ++l.txns;
  l.bytes += bytes;
  if (tracer_ != nullptr && tracer_->enabled()) {
    const bool h2d = d == Dir::kHostToDevice;
    tracer_->record(sim::TraceSpan{
        start, end, trace_node_, h2d ? sim::kPcieLaneH2D : sim::kPcieLaneD2H,
        h2d ? "h2d" : "d2h", sim::Category::kPcie, bytes});
    tracer_->counter_set(end, trace_node_,
                         h2d ? "pcie_h2d_bytes" : "pcie_d2h_bytes", l.bytes);
    tracer_->bump("pcie_transactions");
  }
  return end;
}

sim::Time PcieLink::post_visible_at(Dir d, double bytes) {
  const sim::Time done = serialize(d, bytes);
  sim::Time visible = done + cfg_.txn_latency;
  if (sim::Perturbation* pert = sim_.perturbation(); pert != nullptr) {
    // Bounded completion jitter, clamped so posted writes in one direction
    // stay visible in strictly increasing order — PCIe ordering rules
    // guarantee posted writes commit in issue order, and the queue protocol
    // (§III-C) depends on that.
    Lane& l = lane(d);
    visible += pert->jitter(cfg_.txn_latency);
    visible = std::max(visible, l.visible_free + sim::Perturbation::kOrderEpsilon);
    l.visible_free = visible;
  }
  return visible;
}

sim::Proc<void> PcieLink::doorbell(Dir d, double bytes,
                                   std::function<void()> on_ring) {
  ++doorbells_;
  if (tracer_ != nullptr && tracer_->enabled()) {
    // The doorbell span covers flight time: issue to ring at the NIC. The
    // PCIe lane occupancy itself is traced by serialize() like any write.
    sim::Tracer* tr = tracer_;
    const std::int32_t node = trace_node_;
    const sim::Time begin = sim_.now();
    sim::Simulation* s = &sim_;
    on_ring = [tr, node, begin, s, bytes, inner = std::move(on_ring)] {
      tr->record(sim::TraceSpan{begin, s->now(), node, sim::kNicLane,
                                "doorbell", sim::Category::kQueue, bytes});
      tr->bump("doorbell_rings");
      inner();
    };
  }
  co_await post_write(d, bytes, std::move(on_ring));
}

sim::Proc<void> PcieLink::mapped_read(Dir d, double bytes) {
  const sim::Time done = serialize(d, bytes);
  // Request flight + data serialization + response flight. A non-posted
  // read blocks its issuer, so completion jitter needs no ordering clamp.
  co_await sim_.delay(done + 2.0 * cfg_.txn_latency + completion_jitter() -
                      sim_.now());
}

sim::Proc<void> PcieLink::dma(Dir d, double bytes) {
  co_await sim_.delay(cfg_.dma_startup);
  const sim::Time done = serialize(d, bytes);
  co_await sim_.delay(
      std::max(0.0, done + cfg_.txn_latency + completion_jitter() - sim_.now()));
}

sim::Dur PcieLink::completion_jitter() {
  sim::Perturbation* pert = sim_.perturbation();
  return pert != nullptr ? pert->jitter(cfg_.txn_latency) : 0.0;
}

}  // namespace dcuda::pcie
