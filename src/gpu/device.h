#pragma once

// GPU device model.
//
// The device owns N streaming multiprocessors. Each SM is a
// processor-sharing compute resource among its resident blocks; device
// memory is a device-wide bandwidth resource with a per-block streaming cap.
// Blocks are coroutines scheduled onto SM slots subject to occupancy limits
// (registers, threads, blocks per SM) and are never preempted: once resident
// they hold the slot until completion (§II-B — this is what makes
// synchronizing more blocks than fit in flight deadlock, which the
// simulation's deadlock detector reports).
//
// The crucial dCUDA mechanism falls out of the model: a block suspended in
// wait_notifications holds no compute or memory share, so co-resident blocks
// absorb the freed throughput — hardware supported overlap of computation
// and communication.

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpu/mem.h"
#include "pcie/pcie.h"
#include "sim/config.h"
#include "sim/proc.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "sim/trigger.h"

namespace dcuda::gpu {

struct LaunchConfig {
  int grid_blocks = 1;
  int threads_per_block = 128;
  int regs_per_thread = 26;  // the paper limits kernels to 26 registers
};

class Device;

// Handle passed to kernel code for one block: issues compute and memory
// work against the simulated hardware and provides identity information.
class BlockCtx {
 public:
  BlockCtx(Device& dev, int block_id, int grid_blocks, int sm_id)
      : dev_(&dev), block_id_(block_id), grid_blocks_(grid_blocks), sm_id_(sm_id) {}

  int block_id() const { return block_id_; }
  int grid_blocks() const { return grid_blocks_; }
  int sm_id() const { return sm_id_; }
  Device& device() { return *dev_; }
  sim::Simulation& sim();

  // Awaitable charges (no coroutine frame), traced on the block's lane.
  // `flops` double-precision operations on this block's SM.
  sim::SharedResource::Charge compute_flops(double flops);
  // Compute expressed as time at the block's full (dedicated) issue rate.
  sim::SharedResource::Charge compute(sim::Dur dedicated_time);
  // Streams `bytes` through device memory (reads+writes combined).
  sim::SharedResource::Charge mem_traffic(double bytes);

  // Tracing hook for schedule visualizations (Fig. 1) and the structured
  // observability layer (docs/OBSERVABILITY.md).
  void trace(const char* activity, sim::Category category, sim::Time begin,
             sim::Time end, double bytes = 0.0);

 private:
  Device* dev_;
  int block_id_;
  int grid_blocks_;
  int sm_id_;
};

using Kernel = std::function<sim::Proc<void>(BlockCtx&)>;

// Device-resident mailbox (the per-rank on-device notification board of the
// kDeviceInitiated backend, docs/BACKENDS.md). Entries are deposited by
// whoever can write device memory — a peer block in the same address space,
// or the NIC through a GPUDirect-style posted PCIe write — and scanned in
// arrival order by the owning block's matcher. `epoch` counts total
// deposits, so a matcher that suspended mid-round can detect arrivals that
// bypassed the host→device queue (a lost wake-up otherwise). The board has
// no credit protocol: deposits are posted writes into device memory, not
// entries of a flow-controlled circular queue.
template <typename Entry>
class DeviceBoard {
 public:
  void deposit(Entry e) {
    entries_.push_back(std::move(e));
    ++epoch_;
  }
  std::deque<Entry>& entries() { return entries_; }
  const std::deque<Entry>& entries() const { return entries_; }
  std::uint64_t epoch() const { return epoch_; }
  bool empty() const { return entries_.empty(); }

 private:
  std::deque<Entry> entries_;
  std::uint64_t epoch_ = 0;
};

class Device {
 public:
  Device(sim::Simulation& s, int node_id, const sim::DeviceConfig& cfg,
         pcie::PcieLink* pcie = nullptr, sim::Tracer* tracer = nullptr);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int node() const { return node_; }
  const sim::DeviceConfig& config() const { return cfg_; }
  sim::Simulation& simulation() { return sim_; }
  pcie::PcieLink* pcie() { return pcie_; }
  sim::Tracer* tracer() { return tracer_; }

  // -- Occupancy ---------------------------------------------------------

  // Resident blocks one SM can hold for this launch configuration
  // (whichever of threads, registers, or the block limit binds first).
  int occupancy_blocks_per_sm(const LaunchConfig& lc) const;
  int max_blocks_in_flight(const LaunchConfig& lc) const {
    return occupancy_blocks_per_sm(lc) * cfg_.num_sms;
  }

  // -- Kernel execution ----------------------------------------------------

  // Fork-join launch: returns when every block of the grid completed. Blocks
  // beyond the in-flight limit run as slots free up (sequential tail).
  sim::Proc<void> launch(const LaunchConfig& lc, Kernel k,
                         const std::string& name = "kernel");

  // -- Memory --------------------------------------------------------------

  // Allocates real backing store tagged as this device's memory. The
  // memory is zero-filled; callers may rely on that. It comes from calloc,
  // so large blocks are fresh zero pages faulted in on first write rather
  // than an explicit zero pass over the whole array. Throws std::bad_alloc
  // when the block cannot be had, also when its size overflows.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    if (count > (SIZE_MAX - alignof(T)) / sizeof(T)) throw std::bad_alloc();
    std::unique_ptr<std::byte, FreeDeleter> block(
        static_cast<std::byte*>(std::calloc(count * sizeof(T) + alignof(T), 1)));
    if (!block) throw std::bad_alloc();
    bytes_allocated_ += count * sizeof(T);
    std::byte* p = block.get();
    const auto mis = reinterpret_cast<std::uintptr_t>(p) % alignof(T);
    if (mis != 0) p += alignof(T) - mis;
    allocations_.push_back(std::move(block));
    return std::span<T>(reinterpret_cast<T*>(p), count);
  }

  // Bytes handed out by alloc so far (alignment padding not counted).
  std::size_t bytes_allocated() const { return bytes_allocated_; }

  template <typename T>
  MemRef ref(std::span<T> s) {
    return mem_ref(s, node_);
  }

  sim::SharedResource& memory() { return memory_; }
  sim::SharedResource& sm_compute(int sm_id) {
    return sms_[static_cast<size_t>(sm_id)]->compute;
  }
  double per_block_flop_rate() const {
    return cfg_.sm_flops / cfg_.blocks_to_saturate_sm;
  }

  // Host-initiated copies (baseline MPI-CUDA path and MPI staging). Performs
  // the real memcpy after the simulated transfer time.
  sim::Proc<void> dma_copy(MemRef dst, MemRef src);

  int resident_blocks() const;

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const { std::free(p); }
  };

  struct SmState {
    explicit SmState(sim::Simulation& s, double flops, double cap)
        : compute(s, flops, cap) {}
    sim::SharedResource compute;
    int resident = 0;
  };

  struct LaunchState {
    LaunchConfig lc;
    Kernel kernel;
    std::string name;
    std::string block_name_prefix;  // "dev<node>/<name>/blk", built once
    int next_block = 0;
    int finished = 0;
    int per_sm_limit = 0;
    std::unique_ptr<sim::Trigger> done;
  };

  void fill_slots();
  sim::Proc<void> run_block(std::shared_ptr<LaunchState> st, int block_id,
                            int sm_id);

  sim::Simulation& sim_;
  int node_;
  sim::DeviceConfig cfg_;
  pcie::PcieLink* pcie_;
  sim::Tracer* tracer_;
  std::vector<std::unique_ptr<SmState>> sms_;
  sim::SharedResource memory_;
  std::vector<std::shared_ptr<LaunchState>> active_launches_;
  std::vector<std::unique_ptr<std::byte, FreeDeleter>> allocations_;
  std::size_t bytes_allocated_ = 0;
};

}  // namespace dcuda::gpu
