// Gang-scheduler battery (docs/CLUSTER.md), labeled `cluster`:
//
//  * policy semantics — FIFO blocking, EASY backfill (jump the queue only
//    inside the head's shadow, never delay the head), fair-share
//    reordering by per-user usage, queued-job preemption (requeue).
//  * placement — contiguous first-fit vs strided spreading, disjointness.
//  * oracle self-tests — the cluster lifecycle/allocation/conservation
//    checks fire on hand-fed bad sequences, and the check_busy mutation
//    knob makes a real scheduler run trip the overlap oracle.
//  * real multi-tenant workloads — seeded open arrivals of stencil/
//    particles/spmv jobs on one fabric under every policy, all checked by
//    the full sim::InvariantObserver, plus a perturbation-seed fuzz lane
//    (seed base 0x58000; policy/placement derived from the seed).
//  * determinism — same config twice gives byte-identical transcripts.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/scheduler.h"
#include "cluster/workload.h"
#include "sim/invariants.h"

namespace dcuda {
namespace {

using cluster::AppKind;
using cluster::Job;
using cluster::JobSpec;
using cluster::Placement;
using cluster::Policy;
using cluster::Scheduler;
using cluster::SchedulerConfig;
using sim::InvariantObserver;

sim::MachineConfig machine(int nodes) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  return m;
}

// Policy fixture: a 4-node machine with one node left free, a whole-machine
// job as queue head, and a short narrow job behind it. Every job is
// AppKind::kSynthetic (the JobSpec default), a pure delay whose duration
// equals its estimate, so EASY decisions are exact.
//   j0: 3 nodes, t=0,     1 ms   (starts immediately, one node stays free)
//   j1: 4 nodes, t=0.1ms, 1 ms   (queue head: blocked until j0 finishes)
//   j2: 1 node,  t=0.2ms, 0.1 ms (fits the free node inside j1's shadow)
std::vector<JobSpec> wide_then_narrow() {
  return {
      {.id = 0, .nodes = 3, .arrival = 0.0, .duration = 1e-3,
       .estimated_duration = 1e-3},
      {.id = 1, .nodes = 4, .arrival = 1e-4, .duration = 1e-3,
       .estimated_duration = 1e-3},
      {.id = 2, .nodes = 1, .arrival = 2e-4, .duration = 1e-4,
       .estimated_duration = 1e-4},
  };
}

struct SynthRun {
  Cluster cluster;
  InvariantObserver obs;
  Scheduler sched;

  SynthRun(int nodes, SchedulerConfig cfg, const std::vector<JobSpec>& jobs)
      : cluster({.machine = machine(nodes), .multi_tenant = true}),
        sched(cluster, cfg) {
    cluster.sim().set_invariant_observer(&obs);
    for (const JobSpec& j : jobs) sched.submit(j);
  }

  void run_checked(int expect_jobs) {
    sched.run();
    obs.finalize();
    EXPECT_TRUE(obs.ok()) << obs.report();
    EXPECT_EQ(sched.completed_jobs(), expect_jobs);
  }
};

SchedulerConfig synth(Policy p, Placement place = Placement::kStrided) {
  return {.policy = p, .placement = place};
}

TEST(ClusterSched, FifoRunsInArrivalOrder) {
  SynthRun r(4, synth(Policy::kFifo), wide_then_narrow());
  r.run_checked(3);
  // The narrow j2 must not overtake the blocked queue head j1: it starts
  // only after j1 finished and freed the machine.
  EXPECT_GE(r.sched.job(1).start_time, r.sched.job(0).complete_time);
  EXPECT_GE(r.sched.job(2).start_time, r.sched.job(1).complete_time);
}

TEST(ClusterSched, BackfillSlidesNarrowJobIntoShadow) {
  SynthRun r(4, synth(Policy::kBackfill), wide_then_narrow());
  r.run_checked(3);
  // j2's 0.1 ms estimate fits inside j1's shadow (j0 completes at 1 ms),
  // so it runs while j0 still holds the machine.
  EXPECT_LT(r.sched.job(2).start_time, r.sched.job(0).complete_time);
}

TEST(ClusterSched, BackfillNeverStarvesQueueHead) {
  SynthRun fifo(4, synth(Policy::kFifo), wide_then_narrow());
  fifo.run_checked(3);
  SynthRun bf(4, synth(Policy::kBackfill), wide_then_narrow());
  bf.run_checked(3);
  // EASY guarantee (exact estimates): backfilling j2 must not push the
  // queue head j1 past its FIFO start time.
  EXPECT_LE(bf.sched.job(1).start_time, fifo.sched.job(1).start_time);
}

TEST(ClusterSched, FairShareServesLeastServedUserFirst) {
  // user 0 accumulates usage with j0; then j1 (user 0) and j2 (user 1)
  // compete for the freed machine. Fair-share serves user 1 first; FIFO
  // would serve j1.
  const std::vector<JobSpec> jobs = {
      {.id = 0, .user = 0, .nodes = 4, .arrival = 0.0, .duration = 1e-3,
       .estimated_duration = 1e-3},
      {.id = 1, .user = 0, .nodes = 4, .arrival = 1e-4, .duration = 5e-4,
       .estimated_duration = 5e-4},
      {.id = 2, .user = 1, .nodes = 4, .arrival = 2e-4, .duration = 5e-4,
       .estimated_duration = 5e-4},
  };
  SynthRun fair(4, synth(Policy::kFairShare), jobs);
  fair.run_checked(3);
  EXPECT_LT(fair.sched.job(2).start_time, fair.sched.job(1).start_time);
  SynthRun fifo(4, synth(Policy::kFifo), jobs);
  fifo.run_checked(3);
  EXPECT_LT(fifo.sched.job(1).start_time, fifo.sched.job(2).start_time);
}

// A helper proc so a test can preempt at a chosen simulated time.
sim::Proc<void> preempt_at(Scheduler* sched, sim::Simulation* s, double at,
                           int job_id, bool* result) {
  co_await s->delay(at);
  *result = sched->preempt(job_id);
}

TEST(ClusterSched, PreemptRequeuesQueuedJob) {
  const std::vector<JobSpec> jobs = {
      {.id = 0, .nodes = 4, .arrival = 0.0, .duration = 1e-3,
       .estimated_duration = 1e-3},
      {.id = 1, .nodes = 4, .arrival = 0.0, .duration = 1e-4,
       .estimated_duration = 1e-4},
      {.id = 2, .nodes = 4, .arrival = 0.0, .duration = 1e-4,
       .estimated_duration = 1e-4},
  };
  SynthRun r(4, synth(Policy::kFifo), jobs);
  bool preempted = false;
  bool preempt_running = true;
  r.cluster.sim().spawn(
      preempt_at(&r.sched, &r.cluster.sim(), 5e-4, 1, &preempted), "preempt");
  // Preempting the running job must be refused.
  r.cluster.sim().spawn(
      preempt_at(&r.sched, &r.cluster.sim(), 5e-4, 0, &preempt_running),
      "preempt-running");
  r.run_checked(3);
  EXPECT_TRUE(preempted);
  EXPECT_FALSE(preempt_running);
  EXPECT_EQ(r.sched.job(1).requeues, 1);
  // j1 was requeued behind j2, so j2 starts first; j1 still completes.
  EXPECT_LT(r.sched.job(2).start_time, r.sched.job(1).start_time);
  EXPECT_GE(r.sched.job(1).complete_time, 0.0);
}

TEST(ClusterSched, ContiguousPlacementIsFirstFit) {
  const std::vector<JobSpec> jobs = {
      {.id = 0, .nodes = 3, .arrival = 0.0, .duration = 1e-3,
       .estimated_duration = 1e-3},
      {.id = 1, .nodes = 2, .arrival = 1e-4, .duration = 1e-3,
       .estimated_duration = 1e-3},
  };
  SynthRun r(8, synth(Policy::kFifo, Placement::kContiguous), jobs);
  r.run_checked(2);
  EXPECT_EQ(r.sched.job(0).nodes(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(r.sched.job(1).nodes(), (std::vector<int>{3, 4}));
}

TEST(ClusterSched, StridedPlacementSpreadsTheGang) {
  const std::vector<JobSpec> jobs = {{.id = 0, .nodes = 4, .arrival = 0.0,
                                      .duration = 1e-3,
                                      .estimated_duration = 1e-3}};
  SynthRun r(8, synth(Policy::kFifo, Placement::kStrided), jobs);
  r.run_checked(1);
  EXPECT_EQ(r.sched.job(0).nodes(), (std::vector<int>{0, 2, 4, 6}));
}

// -- Oracle self-tests ---------------------------------------------------

TEST(ClusterOracle, StartWithoutSubmitFires) {
  InvariantObserver obs;
  obs.cluster_nodes(4);
  obs.job_started(7, {0});
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("started without submit"), std::string::npos);
}

TEST(ClusterOracle, OverlappingAllocationFires) {
  InvariantObserver obs;
  obs.cluster_nodes(4);
  obs.job_submitted(1);
  obs.job_submitted(2);
  obs.job_started(1, {0, 1});
  obs.job_started(2, {1, 2});
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("overlapping node allocation"),
            std::string::npos);
}

TEST(ClusterOracle, OutOfBoundsNodeFires) {
  InvariantObserver obs;
  obs.cluster_nodes(4);
  obs.job_submitted(1);
  obs.job_started(1, {5});
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("outside the 4-node cluster"),
            std::string::npos);
}

TEST(ClusterOracle, LostJobFiresAtFinalize) {
  InvariantObserver obs;
  obs.cluster_nodes(4);
  obs.job_submitted(3);
  obs.finalize();
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("lost job"), std::string::npos);
}

TEST(ClusterOracle, LeakedAllocationFiresAtFinalize) {
  InvariantObserver obs;
  obs.cluster_nodes(4);
  obs.job_submitted(3);
  obs.job_started(3, {1});
  obs.finalize();
  EXPECT_FALSE(obs.ok());
  EXPECT_NE(obs.report().find("node conservation violated"),
            std::string::npos);
}

TEST(ClusterOracle, CleanLifecyclePasses) {
  InvariantObserver obs;
  obs.cluster_nodes(4);
  obs.job_submitted(3);
  obs.job_started(3, {1, 2});
  obs.job_completed(3);
  obs.finalize();
  EXPECT_TRUE(obs.ok()) << obs.report();
}

// Mutation check: disabling the allocator's busy-node filter must be
// caught by the overlap oracle — proves the oracle guards the real
// scheduler path, not just hand-fed sequences.
TEST(ClusterOracle, MutationCheckBusyDisabledTripsOverlap) {
  const std::vector<JobSpec> jobs = {
      {.id = 0, .nodes = 2, .arrival = 0.0, .duration = 1e-3,
       .estimated_duration = 1e-3},
      {.id = 1, .nodes = 2, .arrival = 1e-4, .duration = 1e-3,
       .estimated_duration = 1e-3},
  };
  SchedulerConfig cfg = synth(Policy::kFifo, Placement::kContiguous);
  cfg.check_busy = false;  // the mutation
  SynthRun r(4, cfg, jobs);
  r.sched.run();
  r.obs.finalize();
  EXPECT_FALSE(r.obs.ok());
  EXPECT_NE(r.obs.report().find("overlapping node allocation"),
            std::string::npos);
}

// -- Spec validation -------------------------------------------------------

TEST(ClusterSpecValidation, JobSpecRejectsBadFields) {
  EXPECT_FALSE(JobSpec{.id = -1}.validate() == std::nullopt);
  EXPECT_FALSE((JobSpec{.id = 0, .nodes = 0}.validate()) == std::nullopt);
  EXPECT_FALSE(
      (JobSpec{.id = 0, .ranks_per_device = 0}.validate()) == std::nullopt);
  EXPECT_FALSE((JobSpec{.id = 0, .arrival = -1.0}.validate()) == std::nullopt);
  EXPECT_FALSE((JobSpec{.id = 0, .duration = 0.0}.validate()) == std::nullopt);
  EXPECT_FALSE((JobSpec{.id = 0, .iterations = 0}.validate()) == std::nullopt);
  EXPECT_TRUE(JobSpec{.id = 0}.validate() == std::nullopt);
}

TEST(ClusterSpecValidation, ClusterSpecRejectsBadFields) {
  EXPECT_FALSE(ClusterSpec{.machine = machine(0)}.validate() == std::nullopt);
  EXPECT_FALSE(ClusterSpec{.ranks_per_device = 0}.validate() == std::nullopt);
  EXPECT_FALSE(ClusterSpec{.host_ranks = -1}.validate() == std::nullopt);
  EXPECT_TRUE(ClusterSpec{}.validate() == std::nullopt);
  EXPECT_TRUE((ClusterSpec{.machine = machine(16), .multi_tenant = true}
                   .validate() == std::nullopt));
  // Jobs launch without host ranks, so the setting would be dropped.
  EXPECT_EQ((ClusterSpec{.host_ranks = 1, .multi_tenant = true}.validate()),
            std::optional<std::string>(
                "host_ranks must be 0 on a multi_tenant cluster"));
  EXPECT_THROW(
      Cluster({.machine = machine(2), .host_ranks = 1, .multi_tenant = true}),
      ConfigError);
}

TEST(ClusterSpecValidation, CertainLossIsRejected) {
  // Drop, corrupt and link-down at probability 1 would discard every
  // packet, so go-back-N could never deliver; the other classes still
  // deliver at 1.
  double net::FaultConfig::*const lossy[] = {&net::FaultConfig::drop_prob,
                                             &net::FaultConfig::corrupt_prob,
                                             &net::FaultConfig::link_down_prob};
  for (double net::FaultConfig::*p : lossy) {
    sim::MachineConfig m;
    m.fault.*p = 1.0;
    EXPECT_EQ(ClusterSpec{.machine = m}.validate(),
              std::optional<std::string>(
                  "fault drop/corrupt/link-down probabilities must be in "
                  "[0, 1)"));
    m.fault.*p = 0.5;
    EXPECT_EQ(ClusterSpec{.machine = m}.validate(), std::nullopt);
  }
  sim::MachineConfig m;
  m.fault.dup_prob = 1.0;
  m.fault.delay_prob = 1.0;
  EXPECT_EQ(ClusterSpec{.machine = m}.validate(), std::nullopt);
}

// Library code reports bad configuration with a dcuda::ConfigError a caller
// can catch, carrying the validation message; only the DCUDA_* CLI layer
// exits the process.
TEST(ClusterSpecValidation, InvalidClusterSpecThrows) {
  EXPECT_THROW(Cluster({.machine = machine(0)}), ConfigError);
  try {
    Cluster c({.ranks_per_device = 0});
    ADD_FAILURE() << "constructed a cluster from an invalid spec";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "invalid ClusterSpec: ranks_per_device must be >= 1");
  }
}

TEST(ClusterSpecValidation, SchedulerNeedsMultiTenantCluster) {
  Cluster c({.machine = machine(2)});
  EXPECT_THROW(Scheduler{c}, ConfigError);
  // Also for the policy-test configs, whose jobs are all synthetic.
  for (Policy p : {Policy::kFifo, Policy::kBackfill, Policy::kFairShare}) {
    EXPECT_THROW((Scheduler{c, synth(p)}), ConfigError);
  }
}

// A multi-tenant cluster builds no cluster-wide world or node runtimes:
// every entry point that needs them throws instead of reading past them.
TEST(ClusterSpecValidation, MultiTenantClusterHasNoWorld) {
  Cluster c({.machine = machine(2), .multi_tenant = true});
  EXPECT_THROW(c.run([](Context&) -> sim::Proc<void> { co_return; }),
               ConfigError);
  EXPECT_THROW(c.run_hosts([](int) -> sim::Proc<void> { co_return; }),
               ConfigError);
  EXPECT_THROW(c.node(0), ConfigError);
  EXPECT_THROW(c.mpi(0), ConfigError);
}

TEST(ClusterSpecValidation, SubmitRejectsInvalidJobs) {
  Cluster c({.machine = machine(2), .multi_tenant = true});
  Scheduler sched(c, synth(Policy::kFifo));
  EXPECT_THROW(sched.submit(JobSpec{.id = -1}), ConfigError);
  // A gang larger than the machine.
  EXPECT_THROW(sched.submit(JobSpec{.id = 0, .nodes = 3}), ConfigError);
  sched.submit(JobSpec{.id = 0});
  try {
    sched.submit(JobSpec{.id = 0});
    ADD_FAILURE() << "accepted a duplicate job id";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "invalid JobSpec: duplicate job id 0");
  }
}

// -- Real multi-tenant workloads -------------------------------------------

cluster::WorkloadConfig small_real_workload(int jobs, std::uint64_t seed) {
  cluster::WorkloadConfig wl;
  wl.num_jobs = jobs;
  wl.seed = seed;
  wl.mean_interarrival = 2e-4;
  wl.ranks_per_device = 2;
  wl.bytes_per_msg = 1024;
  wl.min_iterations = 2;
  wl.max_iterations = 3;
  return wl;
}

// Runs a real (non-synthetic) open-arrival workload on a multi-tenant
// fabric and returns the transcript; every oracle must stay quiet.
std::vector<std::string> run_real(int nodes, int jobs, std::uint64_t seed,
                                  Policy policy, Placement place,
                                  std::uint64_t perturb_seed = 0) {
  sim::MachineConfig m;
  m.num_nodes = nodes;
  m.perturb_seed = perturb_seed;
  Cluster c({.machine = m, .ranks_per_device = 2, .multi_tenant = true});
  InvariantObserver obs;
  c.sim().set_invariant_observer(&obs);
  SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.placement = place;
  Scheduler sched(c, cfg);
  for (JobSpec& spec :
       cluster::generate_workload(small_real_workload(jobs, seed), nodes)) {
    sched.submit(std::move(spec));
  }
  sched.run();
  obs.finalize();
  EXPECT_TRUE(obs.ok()) << "policy " << cluster::to_string(policy) << ":\n"
                        << obs.report();
  EXPECT_EQ(sched.completed_jobs(), jobs);
  EXPECT_EQ(c.fabric().rx_dropped(), 0u);
  return sched.transcript();
}

TEST(ClusterReal, OpenArrivalWorkloadAllPolicies) {
  for (Policy p : {Policy::kFifo, Policy::kBackfill, Policy::kFairShare}) {
    run_real(/*nodes=*/8, /*jobs=*/10, /*seed=*/42, p, Placement::kStrided);
  }
}

TEST(ClusterReal, SixteenNodeTwentyFourJobs) {
  run_real(/*nodes=*/16, /*jobs=*/24, /*seed=*/7, Policy::kBackfill,
           Placement::kStrided);
}

TEST(ClusterReal, TranscriptIsDeterministic) {
  const std::vector<std::string> a =
      run_real(8, 8, 11, Policy::kBackfill, Placement::kContiguous);
  const std::vector<std::string> b =
      run_real(8, 8, 11, Policy::kBackfill, Placement::kContiguous);
  EXPECT_EQ(a, b);
}

// Fuzz lane (seed base 0x58000, disjoint from every other sweep): the
// schedule perturbation shakes event order under all three policies while
// the full oracle set watches.
TEST(ClusterReal, PerturbedArrivalFuzzLane) {
  constexpr std::uint64_t kBase = 0x58000;
  for (std::uint64_t seed = kBase; seed < kBase + 9; ++seed) {
    const Policy policy = static_cast<Policy>(seed % 3);
    const Placement place = (seed >> 2) % 2 == 0 ? Placement::kContiguous
                                                 : Placement::kStrided;
    run_real(/*nodes=*/6, /*jobs=*/6, /*seed=*/seed, policy, place,
             /*perturb_seed=*/seed);
  }
}

}  // namespace
}  // namespace dcuda
