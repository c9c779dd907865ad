#pragma once

// MPI-CUDA baseline programming model (the traditional approach of Fig. 1):
// one host process per node owning one device, alternating between fork-join
// kernel invocations and two-sided MPI communication, with explicit
// host-device copies for bookkeeping data.
//
// This is the comparison system for every weak-scaling figure: the
// mini-applications implement the same logic on both models, without manual
// overlap of computation and communication in either.

#include <functional>
#include <string>
#include <vector>

#include "gpu/device.h"
#include "mpi/mpi.h"
#include "sim/proc.h"

namespace dcuda::baseline {

// Per-node handle the host main loop programs against.
class HostProgram {
 public:
  HostProgram(gpu::Device& dev, mpi::Endpoint& ep) : dev_(&dev), ep_(&ep) {}

  int node() const { return dev_->node(); }
  int num_nodes() const { return ep_->size(); }
  gpu::Device& device() { return *dev_; }
  mpi::Endpoint& mpi() { return *ep_; }
  sim::Simulation& sim() { return dev_->simulation(); }

  // Fork-join kernel launch with the standard configuration (208 blocks of
  // 128 threads unless overridden).
  sim::Proc<void> launch(gpu::Kernel k, const std::string& name = "kernel") {
    co_await dev_->launch(cfg_, std::move(k), name);
  }
  sim::Proc<void> launch(const gpu::LaunchConfig& lc, gpu::Kernel k,
                         const std::string& name = "kernel") {
    co_await dev_->launch(lc, std::move(k), name);
  }

  // Two-sided communication (CUDA-aware: device buffers allowed).
  mpi::Request isend(int dst, int tag, gpu::MemRef buf) {
    return ep_->isend(dst, tag, buf);
  }
  mpi::Request irecv(int src, int tag, gpu::MemRef buf) {
    return ep_->irecv(src, tag, buf);
  }
  sim::Proc<void> barrier() { return ep_->barrier(); }

  // Explicit copies (e.g. fetching bookkeeping counters to the host).
  sim::Proc<void> copy(gpu::MemRef dst, gpu::MemRef src) {
    return dev_->dma_copy(dst, src);
  }

 private:
  gpu::Device* dev_;
  mpi::Endpoint* ep_;
  gpu::LaunchConfig cfg_{208, 128, 26};
};

}  // namespace dcuda::baseline
