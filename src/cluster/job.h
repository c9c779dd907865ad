#pragma once

// A gang-scheduled dCUDA job (docs/CLUSTER.md): one whole application —
// stencil-, particle- or spmv-shaped communication, or a pure synthetic
// delay — submitted to a multi-tenant Cluster and placed by
// cluster::Scheduler onto a subset of the machine's nodes.
//
// A running job brings its own world, built by the same
// Cluster::build_world as the cluster-wide one: per owned node, receive
// mailboxes the fabric delivers into directly, and an endpoint and node
// runtime whose ranks are job-relative (the endpoints translate them
// to physical nodes at the wire) and whose window ids and oracle keys carry
// the job's tag. All protocol state is therefore placement-independent: the
// same job produces the same schedule wherever the scheduler puts it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sim/proc.h"
#include "sim/simulation.h"

namespace dcuda::cluster {

// Application shape of a job's per-rank body (implemented in job.cc against
// the dcuda:: device API).
enum class AppKind {
  kSynthetic,  // no world: the job is a pure simulated delay of `duration`
  kStencil,    // halo exchange with rank +/- 1 (notified puts, §IV-C)
  kParticles,  // ring: bulk cell put + notified count put to rank + 1
  kSpmv,       // strided scatter: notified puts to ranks + {1, 2, 4}
};

const char* to_string(AppKind app);

// Typed job-submission surface (docs/API.md "JobSpec"). An aggregate:
// designated initializers are the intended call style.
struct JobSpec {
  int id = -1;     // unique per workload, >= 0
  int user = 0;    // fair-share accounting key
  AppKind app = AppKind::kSynthetic;
  int nodes = 1;   // gang size: devices the job needs, all-or-nothing
  int ranks_per_device = 4;
  double arrival = 0.0;  // open-arrival submit time (simulated seconds)
  // Synthetic run time; real apps derive their length from iterations/bytes.
  double duration = 1e-3;
  // User-provided runtime estimate: the EASY-backfill shadow time is
  // computed from running jobs' start + estimate (docs/CLUSTER.md).
  double estimated_duration = 1e-3;
  int iterations = 3;              // real apps: communication rounds
  std::size_t bytes_per_msg = 4096;  // real apps: payload per message
  std::uint64_t seed = 0;          // per-job compute-jitter stream

  // First problem found, or nullopt when the spec is runnable.
  std::optional<std::string> validate() const;
};

// One submitted job: spec, lifecycle timestamps, and (while running) the
// job-local world. Owned by the Scheduler; finished jobs are quiesced, not
// destroyed — their suspended runtime daemons keep their mailboxes and
// triggers alive until the simulation ends.
class Job {
 public:
  Job(Cluster& cluster, JobSpec spec);
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  const JobSpec& spec() const { return spec_; }

  // Runs the job on `nodes` (physical, disjoint from every other running
  // job) to completion.
  sim::Proc<void> run(std::vector<int> nodes);

  // Lifecycle timestamps (simulated seconds; < 0 = not reached).
  double submit_time = -1.0;
  double start_time = -1.0;
  double complete_time = -1.0;
  const std::vector<int>& nodes() const { return nodes_; }
  int requeues = 0;  // times preempted out of the queue

 private:
  sim::Proc<void> run_real();

  Cluster& cluster_;
  JobSpec spec_;
  std::vector<int> nodes_;  // physical placement while/after running

  // Job-local world, retained after completion (see class comment).
  RankWorld world_;
};

}  // namespace dcuda::cluster
