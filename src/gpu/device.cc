#include "gpu/device.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dcuda::gpu {

sim::Simulation& BlockCtx::sim() { return dev_->simulation(); }

sim::SharedResource::Charge BlockCtx::compute_flops(double flops) {
  return {&dev_->sm_compute(sm_id_), flops, dev_->tracer(), "compute",
          dev_->node(), block_id_, sim::Category::kCompute};
}

sim::SharedResource::Charge BlockCtx::compute(sim::Dur dedicated_time) {
  return compute_flops(dedicated_time * dev_->per_block_flop_rate());
}

sim::SharedResource::Charge BlockCtx::mem_traffic(double bytes) {
  return {&dev_->memory(), bytes, dev_->tracer(), "memory", dev_->node(),
          block_id_, sim::Category::kMemory, bytes};
}

void BlockCtx::trace(const char* activity, sim::Category category,
                     sim::Time begin, sim::Time end, double bytes) {
  if (sim::Tracer* t = dev_->tracer(); t && t->enabled()) {
    t->record(sim::TraceSpan{begin, end, dev_->node(), block_id_, activity,
                             category, bytes});
  }
}

Device::Device(sim::Simulation& s, int node_id, const sim::DeviceConfig& cfg,
               pcie::PcieLink* pcie, sim::Tracer* tracer)
    : sim_(s),
      node_(node_id),
      cfg_(cfg),
      pcie_(pcie),
      tracer_(tracer),
      memory_(s, cfg.mem_bandwidth, cfg.per_block_mem_bandwidth) {
  sms_.reserve(static_cast<size_t>(cfg.num_sms));
  const double per_block_cap = cfg.sm_flops / cfg.blocks_to_saturate_sm;
  for (int i = 0; i < cfg.num_sms; ++i) {
    sms_.push_back(std::make_unique<SmState>(s, cfg.sm_flops, per_block_cap));
  }
}

int Device::occupancy_blocks_per_sm(const LaunchConfig& lc) const {
  if (lc.threads_per_block <= 0 || lc.threads_per_block > cfg_.max_threads_per_sm ||
      lc.regs_per_thread > cfg_.max_regs_per_thread) {
    return 0;
  }
  const int by_threads = cfg_.max_threads_per_sm / lc.threads_per_block;
  const int regs_per_block = lc.regs_per_thread * lc.threads_per_block;
  const int by_regs =
      regs_per_block > 0 ? cfg_.regs_per_sm / regs_per_block : cfg_.max_blocks_per_sm;
  return std::max(0, std::min({cfg_.max_blocks_per_sm, by_threads, by_regs}));
}

int Device::resident_blocks() const {
  int n = 0;
  for (const auto& sm : sms_) n += sm->resident;
  return n;
}

sim::Proc<void> Device::launch(const LaunchConfig& lc, Kernel k,
                               const std::string& name) {
  if (lc.grid_blocks <= 0) throw std::invalid_argument("empty grid");
  const int per_sm = occupancy_blocks_per_sm(lc);
  if (per_sm == 0) {
    throw std::invalid_argument("launch configuration exceeds device limits");
  }
  co_await sim_.delay(cfg_.launch_overhead);

  auto st = std::make_shared<LaunchState>();
  st->lc = lc;
  st->kernel = std::move(k);
  st->name = name;
  st->block_name_prefix =
      "dev" + std::to_string(node_) + "/" + name + "/blk";
  st->per_sm_limit = per_sm;
  st->done = std::make_unique<sim::Trigger>(sim_);
  active_launches_.push_back(st);
  fill_slots();

  while (st->finished < lc.grid_blocks) co_await st->done->wait();
  std::erase(active_launches_, st);
}

void Device::fill_slots() {
  // Greedy round-robin over SMs for every launch that still has pending
  // blocks. Keeps block->SM assignment deterministic: lowest index wins
  // ties — unless a schedule perturbation is installed, which picks among
  // the equally least-loaded SMs (the hardware scheduler promises no
  // particular assignment).
  sim::Perturbation* pert = sim_.perturbation();
  for (auto& st : active_launches_) {
    while (st->next_block < st->lc.grid_blocks) {
      int best_sm = -1;
      int best_load = INT32_MAX;
      for (int i = 0; i < cfg_.num_sms; ++i) {
        const int load = sms_[static_cast<size_t>(i)]->resident;
        if (load < st->per_sm_limit && load < cfg_.max_blocks_per_sm &&
            load < best_load) {
          best_load = load;
          best_sm = i;
        }
      }
      if (best_sm < 0) break;  // no slot free; retried when a block finishes
      if (pert != nullptr && pert->has(sim::Perturbation::kSmPick)) {
        int ties = 0;
        for (int i = 0; i < cfg_.num_sms; ++i) {
          if (sms_[static_cast<size_t>(i)]->resident == best_load) ++ties;
        }
        int k = pert->pick(ties);
        for (int i = 0; i < cfg_.num_sms; ++i) {
          if (sms_[static_cast<size_t>(i)]->resident == best_load && k-- == 0) {
            best_sm = i;
            break;
          }
        }
      }
      const int id = st->next_block++;
      ++sms_[static_cast<size_t>(best_sm)]->resident;
      if (tracer_ && tracer_->enabled()) {
        tracer_->counter_set(sim_.now(), node_, "resident_blocks",
                             resident_blocks());
      }
      sim_.spawn(run_block(st, id, best_sm),
                 st->block_name_prefix + std::to_string(id));
    }
  }
}

sim::Proc<void> Device::run_block(std::shared_ptr<LaunchState> st, int block_id,
                                  int sm_id) {
  co_await sim_.delay(cfg_.block_dispatch_overhead);
  BlockCtx ctx(*this, block_id, st->lc.grid_blocks, sm_id);
  co_await st->kernel(ctx);
  --sms_[static_cast<size_t>(sm_id)]->resident;
  if (tracer_ && tracer_->enabled()) {
    tracer_->counter_set(sim_.now(), node_, "resident_blocks", resident_blocks());
  }
  ++st->finished;
  st->done->notify_all();
  fill_slots();
}

sim::Proc<void> Device::dma_copy(MemRef dst, MemRef src) {
  assert(dst.bytes >= src.bytes);
  const double bytes = static_cast<double>(src.bytes);
  if (src.on_device() && dst.on_device()) {
    // Device-local copy through the memory system (read + write).
    co_await memory_.use(2.0 * bytes);
  } else if (pcie_ != nullptr && (src.on_device() || dst.on_device())) {
    const auto dir = src.on_device() ? pcie::Dir::kDeviceToHost
                                     : pcie::Dir::kHostToDevice;
    co_await pcie_->dma(dir, bytes);
  }
  if (bytes > 0) std::memcpy(dst.data, src.data, src.bytes);
}

}  // namespace dcuda::gpu
