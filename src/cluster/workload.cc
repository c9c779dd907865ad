#include "cluster/workload.h"

#include <algorithm>
#include <cmath>

#include "sim/random.h"

namespace dcuda::cluster {

namespace {

// Exponential with the given mean; 1 - u lies in (0, 1], so log never sees
// zero.
double exponential(sim::Rng& rng, double mean) {
  return -std::log(1.0 - rng.next_double()) * mean;
}

}  // namespace

std::vector<JobSpec> generate_workload(const WorkloadConfig& cfg,
                                       int cluster_nodes) {
  sim::Rng rng(cfg.seed * 0x2545f4914f6cdd1dull + 0x853c49e6748fea9bull);
  std::vector<JobSpec> jobs;
  double clock = 0.0;
  constexpr AppKind kApps[] = {AppKind::kStencil, AppKind::kParticles,
                               AppKind::kSpmv};
  for (int i = 0; i < cfg.num_jobs; ++i) {
    clock += exponential(rng, cfg.mean_interarrival);
    JobSpec s;
    s.id = i;
    s.user = cfg.num_users > 0
                 ? static_cast<int>(rng.uniform_int(0, cfg.num_users - 1))
                 : 0;
    s.app = kApps[static_cast<size_t>(rng.uniform_int(0, 2))];
    const bool wide =
        rng.next_double() < cfg.wide_fraction && cluster_nodes >= 2;
    if (wide) {
      s.nodes = static_cast<int>(
          rng.uniform_int(std::max(2, cluster_nodes / 2),
                          std::max(2, (3 * cluster_nodes) / 4)));
    } else {
      s.nodes = static_cast<int>(
          rng.uniform_int(1, std::max(2, cluster_nodes / 4)));
    }
    s.nodes = std::min(s.nodes, cluster_nodes);
    s.ranks_per_device = cfg.ranks_per_device;
    s.arrival = clock;
    s.duration = cfg.min_duration +
                 rng.next_double() * (cfg.max_duration - cfg.min_duration);
    // Iteration count scales with the drawn duration, so a real job's
    // actual span correlates with its runtime estimate — EASY backfill is
    // only as good as the estimates it is fed.
    const double frac =
        cfg.max_duration > cfg.min_duration
            ? (s.duration - cfg.min_duration) /
                  (cfg.max_duration - cfg.min_duration)
            : 0.0;
    s.iterations =
        cfg.min_iterations +
        static_cast<int>(frac * static_cast<double>(cfg.max_iterations -
                                                    cfg.min_iterations) +
                         0.5);
    if (wide && cfg.wide_duration_factor > 1.0) {
      s.duration *= cfg.wide_duration_factor;
      s.iterations = static_cast<int>(
          static_cast<double>(s.iterations) * cfg.wide_duration_factor + 0.5);
    }
    // Upper-bound estimates (the user's conservative guess): wide gangs
    // estimate proportionally longer.
    s.estimated_duration = s.duration * (1.0 + 0.25 * s.nodes);
    s.bytes_per_msg = cfg.bytes_per_msg;
    s.seed = rng.next_u64();
    jobs.push_back(s);
  }
  return jobs;
}

}  // namespace dcuda::cluster
