// Gang-scheduler policy bench (docs/CLUSTER.md): one 16-node multi-tenant
// fabric, a seeded open-arrival workload of real dCUDA jobs (stencil /
// particles / spmv shapes, mixed gang sizes), run once per scheduling
// policy. Emits a JSON record with per-policy makespan, utilization and
// wait-time percentiles. On the reference workload (the --transcript
// golden case included), EASY backfill utilization below 1.15x FIFO's
// fails the run. Other seeds and sizes are not gated: on most of them the
// two policies land within a few percent.
//
// Every run is checked by the sim::InvariantObserver cluster oracles (no
// lost jobs, no overlapping allocations, node conservation) — any firing
// is a hard failure.
//
// Flags / env:
//   --transcript      print each policy's scheduler transcript instead of
//                     the JSON record (cluster_transcript golden case)
//   --seed <n>        workload seed (default 27, the reference workload: a
//                     bursty mix whose arrival order puts wide gangs ahead
//                     of short narrow jobs — the adversarial case for FIFO);
//                     anything but an unsigned integer exits 2
//   DCUDA_JOBS        workload size (default 24, at least 1)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cluster/cluster.h"
#include "cluster/scheduler.h"
#include "cluster/workload.h"
#include "sim/invariants.h"

namespace {

constexpr int kNodes = 16;
constexpr std::uint64_t kReferenceSeed = 27;
constexpr int kReferenceJobs = 24;

struct PolicyResult {
  std::string name;
  double makespan = 0.0;
  double utilization = 0.0;
  double wait_mean = 0.0;
  double wait_p50 = 0.0;
  double wait_p95 = 0.0;
  int jobs = 0;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

dcuda::cluster::WorkloadConfig workload_config(int num_jobs,
                                               std::uint64_t seed) {
  dcuda::cluster::WorkloadConfig wl;
  wl.num_jobs = num_jobs;
  wl.seed = seed;
  // Bursty arrivals: the whole workload lands inside the first wide job's
  // runtime, so the policies actually differ — FIFO idles nodes behind a
  // blocked wide head, EASY backfills them (the 1.15x utilization bar).
  wl.mean_interarrival = 1e-5;
  wl.wide_fraction = 0.35;
  wl.wide_duration_factor = 2.0;
  wl.min_iterations = 2;
  wl.max_iterations = 5;
  wl.ranks_per_device = 2;
  wl.bytes_per_msg = 16384;
  return wl;
}

// Strict full-string parse, as the DCUDA_* dials parse: a typo must not
// silently run another workload.
std::uint64_t parse_seed(const char* s) {
  const std::optional<std::uint64_t> v = dcuda::bench::parse_u64(s);
  if (!v) {
    std::fprintf(stderr,
                 "error: invalid --seed '%s' (expected an unsigned 64-bit "
                 "integer)\n", s ? s : "");
    std::exit(2);
  }
  return *v;
}

PolicyResult run_policy(dcuda::cluster::Policy policy, int num_jobs,
                        std::uint64_t seed, bool transcript) {
  using namespace dcuda;
  Cluster c({.machine = bench::machine(kNodes),
             .ranks_per_device = 2,
             .multi_tenant = true});
  sim::InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  cluster::SchedulerConfig sc;
  sc.policy = policy;
  sc.placement = cluster::Placement::kStrided;
  cluster::Scheduler sched(c, sc);
  for (cluster::JobSpec& spec :
       cluster::generate_workload(workload_config(num_jobs, seed), kNodes)) {
    sched.submit(std::move(spec));
  }
  sched.run();
  obs.finalize();
  if (!obs.ok()) {
    std::fprintf(stderr, "FAIL: cluster oracle violations under %s:\n%s",
                 cluster::to_string(policy), obs.report().c_str());
    std::exit(1);
  }
  if (sched.completed_jobs() != num_jobs) {
    std::fprintf(stderr, "FAIL: %d/%d jobs completed under %s\n",
                 sched.completed_jobs(), num_jobs,
                 cluster::to_string(policy));
    std::exit(1);
  }
  if (transcript) {
    std::printf("== policy %s ==\n", cluster::to_string(policy));
    for (const std::string& l : sched.transcript()) {
      std::printf("%s\n", l.c_str());
    }
  }
  PolicyResult r;
  r.name = cluster::to_string(policy);
  r.makespan = sched.makespan();
  r.utilization = sched.utilization();
  r.jobs = sched.completed_jobs();
  const std::vector<double> waits = sched.wait_times();
  double sum = 0.0;
  for (double w : waits) sum += w;
  r.wait_mean = waits.empty() ? 0.0 : sum / static_cast<double>(waits.size());
  r.wait_p50 = percentile(waits, 0.50);
  r.wait_p95 = percentile(waits, 0.95);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool transcript = false;
  std::uint64_t seed = kReferenceSeed;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--transcript") == 0) transcript = true;
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = parse_seed(i + 1 < argc ? argv[++i] : nullptr);
    }
  }
  const int num_jobs = dcuda::bench::env_int("DCUDA_JOBS", kReferenceJobs, 1);

  std::vector<PolicyResult> results;
  for (dcuda::cluster::Policy p : {dcuda::cluster::Policy::kFifo,
                                   dcuda::cluster::Policy::kBackfill,
                                   dcuda::cluster::Policy::kFairShare}) {
    results.push_back(run_policy(p, num_jobs, seed, transcript));
  }
  const double fifo_util = results[0].utilization;
  const double backfill_util = results[1].utilization;
  if (seed == kReferenceSeed && num_jobs == kReferenceJobs) {
    dcuda::bench::require(backfill_util >= 1.15 * fifo_util,
                          "backfill utilization " +
                              dcuda::bench::fmt(backfill_util, "%.6f") +
                              " < 1.15x fifo " +
                              dcuda::bench::fmt(fifo_util, "%.6f"));
  }
  if (transcript) return 0;

  std::printf("{\n  \"schema\": \"dcuda-bench-cluster-v1\",\n");
  std::printf("  \"nodes\": %d,\n  \"jobs\": %d,\n  \"policies\": {", kNodes,
              num_jobs);
  for (size_t i = 0; i < results.size(); ++i) {
    const PolicyResult& r = results[i];
    std::printf(
        "%s\n    \"%s\": {\"makespan\": %.9f, \"utilization\": %.6f, "
        "\"wait_mean\": %.9f, \"wait_p50\": %.9f, \"wait_p95\": %.9f, "
        "\"jobs\": %d}",
        i == 0 ? "" : ",", r.name.c_str(), r.makespan, r.utilization,
        r.wait_mean, r.wait_p50, r.wait_p95, r.jobs);
  }
  std::printf("\n  }\n}\n");
  return 0;
}
