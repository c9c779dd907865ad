#pragma once

// Multi-tenant gang scheduler (docs/CLUSTER.md): places whole dCUDA jobs
// (cluster::Job) onto disjoint node subsets of one multi-tenant Cluster.
// Jobs arrive at simulated times (open arrivals), queue when the machine is
// full, and run all-or-nothing on their gang. Three policies:
//
//  * kFifo      — strict arrival order; the queue head blocks everyone.
//  * kBackfill  — EASY backfill: the head gets a shadow-time reservation
//                 from running jobs' estimated completions, and a later job
//                 may jump the queue only if its own estimate finishes
//                 before the shadow time — the head is never delayed
//                 (relative to its estimates).
//  * kFairShare — queue reordered by accumulated per-user node-seconds
//                 (least-served user first), then FIFO semantics.
//
// Every lifecycle transition is reported to the sim::InvariantObserver
// cluster oracles (no lost jobs, no overlapping allocations, node
// conservation) and appended to a deterministic transcript
// (the cluster_transcript golden case, tests/golden/cases.txt).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/job.h"
#include "sim/proc.h"

namespace dcuda::cluster {

enum class Policy { kFifo, kBackfill, kFairShare };
enum class Placement { kContiguous, kStrided };

const char* to_string(Policy p);

struct SchedulerConfig {
  Policy policy = Policy::kFifo;
  Placement placement = Placement::kContiguous;
  // Mutation knob for the oracle self-test: false makes the allocator
  // ignore which nodes are busy, so two jobs overlap and the observer's
  // "overlapping node allocation" check must fire. Never disable outside
  // that test.
  bool check_busy = true;
};

class Scheduler {
 public:
  // Throws dcuda::ConfigError unless the cluster is multi_tenant.
  explicit Scheduler(Cluster& cluster, SchedulerConfig cfg = {});

  // Registers a job for its spec's arrival time. Must be called before
  // run(); an invalid spec (JobSpec::validate, duplicate id, or a gang
  // larger than the machine) throws dcuda::ConfigError.
  void submit(JobSpec spec);

  // Pulls a *queued* job out of the queue and re-enters it at the tail
  // (its requeue count increments). Running or finished jobs are not
  // preempted — returns false. Callable from job bodies / test procs.
  bool preempt(int job_id);

  // Runs every submitted job to completion; returns the makespan (first
  // arrival handled at its simulated time, so with arrivals starting at 0
  // this is the last completion time).
  double run();

  // -- Results ---------------------------------------------------------

  const Job& job(int job_id) const;
  int completed_jobs() const;
  double makespan() const { return makespan_; }
  // Busy node-seconds / (machine nodes x makespan).
  double utilization() const;
  // start - submit per completed job, in job-id order.
  std::vector<double> wait_times() const;
  // One line per lifecycle event ("t=<time> submit/start/complete/preempt
  // job=<id> ..."), in simulated-event order.
  const std::vector<std::string>& transcript() const { return transcript_; }

 private:
  struct Entry {
    JobSpec spec;
    std::unique_ptr<Job> job;
    bool queued = false;
    bool running = false;
    bool done = false;
  };

  sim::Proc<void> arrival(int idx);
  sim::Proc<void> execute(int idx, std::vector<int> alloc);
  // Starts every job the policy admits on the current free set.
  void pass();
  void start(int idx, std::vector<int> alloc);
  // Queue positions in the order the policy would serve them.
  std::vector<int> service_order() const;
  // Free-node allocation for a gang of `need`, or empty if it doesn't fit.
  std::vector<int> try_alloc(int need) const;
  // EASY shadow time: earliest estimated time the queue head could start.
  double shadow_time(int head_need) const;
  void line(const std::string& text);

  Cluster& cluster_;
  SchedulerConfig cfg_;
  std::vector<Entry> entries_;
  std::map<int, int> by_id_;      // job id -> entries_ index
  std::vector<int> queue_;        // queued entry indices, service order base
  std::vector<bool> busy_;        // per physical node
  std::map<int, double> user_usage_;  // completed node-seconds per user
  double run_start_ = 0.0;
  double makespan_ = 0.0;
  double busy_node_seconds_ = 0.0;
  std::vector<std::string> transcript_;
};

}  // namespace dcuda::cluster
