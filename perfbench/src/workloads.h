#pragma once

// The benchmark's two workloads (README.md in this directory). Each call
// runs one phase of one workload in this process, on a freshly built
// cluster, and fills `rec` with what it measured.

#include <cstdint>
#include <string>

#include "probe.h"

namespace perfbench {

struct Options {
  std::string workload;  // stencil_paper | rma_pingpong
  std::string phase;     // see run_phase
  std::uint64_t seed = 1;
  bool tiny = false;     // smoke-check size
  int threads = 0;       // engine worker threads; 0 = the workload's own
  bool trace = false;    // enable the cluster's tracer
  bool device_backend = false;  // rma_pingpong: device-initiated runtime
};

// Phases: stencil_paper {dcuda, mpi, halo, reference}; rma_pingpong {run}.
// Throws std::invalid_argument on an unknown workload or phase.
void run_phase(const Options& opt, Record& rec, SpanLog& log);

}  // namespace perfbench
