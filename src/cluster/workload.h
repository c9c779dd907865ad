#pragma once

// Seeded open-arrival workload generator for the gang scheduler
// (docs/CLUSTER.md): turns one (seed, job count) pair into a reproducible
// stream of JobSpecs — exponential interarrival gaps, a wide/narrow gang
// geometry mix, and a rotation over the real application shapes — so one
// sim::Simulation carries tens of jobs on one fabric and two runs with the
// same config produce byte-identical schedules.

#include <cstdint>
#include <vector>

#include "cluster/job.h"

namespace dcuda::cluster {

struct WorkloadConfig {
  int num_jobs = 24;
  int num_users = 3;
  std::uint64_t seed = 1;
  // Mean simulated seconds between arrivals (open arrivals: job k's
  // arrival is the sum of k exponential gaps, independent of service).
  double mean_interarrival = 1e-4;
  // Gang geometry: roughly one job in four is "wide" (half the machine and
  // up), the rest draw 1..max(2, nodes/4) — small jobs are what backfill
  // slides into the wide jobs' shadow.
  double wide_fraction = 0.25;
  // Wide gangs run this much longer than the narrow draw (duration,
  // iterations, and estimate all scale): big jobs being long is both the
  // realistic mix and the adversarial case for FIFO — a long wide queue
  // head idles the leftover nodes that backfill would fill.
  double wide_duration_factor = 1.0;
  // Real-app knobs applied to every generated job.
  int ranks_per_device = 2;
  int min_iterations = 2;
  int max_iterations = 4;
  std::size_t bytes_per_msg = 4096;
  // Drawn job durations, [min, max): each job's iteration count and
  // runtime estimate scale with its draw.
  double min_duration = 2e-4;
  double max_duration = 1e-3;
};

// Generates `cfg.num_jobs` specs for a `cluster_nodes`-node machine, ids
// 0..n-1 in arrival order.
std::vector<JobSpec> generate_workload(const WorkloadConfig& cfg,
                                       int cluster_nodes);

}  // namespace dcuda::cluster
