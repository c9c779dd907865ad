#pragma once

// Shared helpers for the figure-reproduction benchmarks. Every binary
// prints the series the corresponding paper figure plots. Simulated time is
// deterministic, so a single run per configuration replaces the paper's
// median-of-30 methodology (documented in EXPERIMENTS.md). The DCUDA_*
// dials come from bench/env.h, the one parser of the environment.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/env.h"
#include "cluster/cluster.h"
#include "sim/trace_export.h"
#include "sim/units.h"

namespace dcuda::bench {

// Iteration scale: benches default to fewer main-loop iterations than the
// paper's 100 and report per-100-iteration numbers. DCUDA_BENCH_ITERS=100
// reproduces the full runs.
inline int iterations(int dflt = 20) {
  return env_int("DCUDA_BENCH_ITERS", dflt, 1);
}

// Benchmark machine: the DCUDA_* machine dials (perturbation seed, fault
// ladder, executor shards/threads, topology/rails/route, runtime backend)
// applied by apply_env.
inline sim::MachineConfig machine(int nodes) {
  sim::MachineConfig cfg;
  cfg.num_nodes = nodes;
  apply_env(cfg);
  return cfg;
}

// Acceptance bar of a bench's simulated-clock claim (docs/PERF.md): when
// `cond` is false, prints "FAIL: <msg>" to stderr and exits 1, so the
// bench's golden case fails. Stdout, which the golden pins, is untouched.
inline void require(bool cond, const std::string& msg) {
  if (cond) return;
  std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
  std::exit(1);
}

inline void header(const char* fig, const char* title) {
  std::printf("# %s: %s\n", fig, title);
  std::printf("# simulated K80 cluster (13 SMs, 208 blocks in flight, 6 GB/s network)\n");
}

inline void row(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s", i ? "\t" : "", cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string fmt(double v, const char* f = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// -- Trace export (--trace / --summary) --------------------------------
//
// Every fig* benchmark accepts
//   --trace out.json   write a Chrome trace_event file (Perfetto-loadable)
//   --summary          print a per-variant metric table (overlap %, wait
//                      histogram, counters) after the figure's series
// Benchmarks register one tracer snapshot per variant via trace_add(); the
// exporter gives each variant its own process group in the trace so e.g.
// MPI-CUDA and dCUDA lanes sit side by side (docs/OBSERVABILITY.md).
class TraceSink {
 public:
  // Consumes --trace FILE and --summary; leaves other args untouched.
  void parse_args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--trace" && i + 1 < argc) {
        path_ = argv[++i];
      } else if (a == "--summary") {
        summary_ = true;
      }
    }
  }

  // True when a benchmark should run with tracing enabled.
  bool enabled() const { return !path_.empty() || summary_; }

  // Snapshot a variant's tracer (copied: the Cluster that owns it usually
  // dies before export).
  void add(std::string label, const sim::Tracer& t) {
    snaps_.emplace_back(std::move(label), t);
  }

  // Writes the merged Chrome trace and/or prints the metric tables.
  void finish() {
    if (!enabled() || snaps_.empty()) return;
    if (summary_) {
      for (const auto& [label, tracer] : snaps_) {
        std::printf("\n");
        sim::write_summary(std::cout, tracer, label);
      }
    }
    if (!path_.empty()) {
      std::vector<sim::TracerGroup> groups;
      groups.reserve(snaps_.size());
      for (const auto& [label, tracer] : snaps_) {
        groups.push_back(sim::TracerGroup{&tracer, label});
      }
      if (sim::export_chrome_file(path_, groups)) {
        std::fprintf(stderr, "wrote %s (load at https://ui.perfetto.dev)\n",
                     path_.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      }
    }
  }

 private:
  std::string path_;
  bool summary_ = false;
  std::vector<std::pair<std::string, sim::Tracer>> snaps_;
};

inline TraceSink& trace_sink() {
  static TraceSink sink;
  return sink;
}

}  // namespace dcuda::bench
