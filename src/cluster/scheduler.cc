#include "cluster/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>

#include "sim/invariants.h"

namespace dcuda::cluster {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kFifo:
      return "fifo";
    case Policy::kBackfill:
      return "backfill";
    case Policy::kFairShare:
      return "fairshare";
  }
  return "?";
}

Scheduler::Scheduler(Cluster& cluster, SchedulerConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  if (!cluster_.multi_tenant()) {
    throw ConfigError("cluster::Scheduler needs ClusterSpec::multi_tenant");
  }
  busy_.assign(static_cast<size_t>(cluster_.num_nodes()), false);
}

void Scheduler::submit(JobSpec spec) {
  const std::string job = "invalid JobSpec (job " + std::to_string(spec.id) + "): ";
  if (auto err = spec.validate()) throw ConfigError(job + *err);
  if (spec.nodes > cluster_.num_nodes()) {
    throw ConfigError(job + "gang of " + std::to_string(spec.nodes) +
                      " nodes on a " + std::to_string(cluster_.num_nodes()) +
                      "-node machine");
  }
  if (by_id_.count(spec.id) > 0) {
    throw ConfigError("invalid JobSpec: duplicate job id " +
                      std::to_string(spec.id));
  }
  by_id_[spec.id] = static_cast<int>(entries_.size());
  Entry e;
  e.job = std::make_unique<Job>(cluster_, spec);
  e.spec = std::move(spec);
  entries_.push_back(std::move(e));
}

bool Scheduler::preempt(int job_id) {
  auto it = by_id_.find(job_id);
  if (it == by_id_.end()) return false;
  const int idx = it->second;
  Entry& e = entries_[static_cast<size_t>(idx)];
  if (!e.queued) return false;  // running/done jobs are never preempted
  auto pos = std::find(queue_.begin(), queue_.end(), idx);
  assert(pos != queue_.end());
  queue_.erase(pos);
  queue_.push_back(idx);
  ++e.job->requeues;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%.9f preempt job=%d",
                cluster_.sim().now(), job_id);
  line(buf);
  return true;
}

double Scheduler::run() {
  sim::Simulation& s = cluster_.sim();
  if (sim::InvariantObserver* obs = s.invariant_observer(); obs != nullptr) {
    obs->cluster_nodes(cluster_.num_nodes());
  }
  run_start_ = s.now();
  for (int i = 0; i < static_cast<int>(entries_.size()); ++i) {
    s.spawn(arrival(i),
            "arrival@job" + std::to_string(entries_[static_cast<size_t>(i)].spec.id));
  }
  s.run();
  makespan_ = s.now() - run_start_;
  return makespan_;
}

sim::Proc<void> Scheduler::arrival(int idx) {
  Entry& e = entries_[static_cast<size_t>(idx)];
  sim::Simulation& s = cluster_.sim();
  const double at = run_start_ + e.spec.arrival;
  if (at > s.now()) co_await s.delay(at - s.now());
  e.job->submit_time = s.now();
  e.queued = true;
  queue_.push_back(idx);
  if (sim::InvariantObserver* obs = s.invariant_observer(); obs != nullptr) {
    obs->job_submitted(e.spec.id);
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "t=%.9f submit job=%d user=%d nodes=%d",
                s.now(), e.spec.id, e.spec.user, e.spec.nodes);
  line(buf);
  pass();
}

std::vector<int> Scheduler::service_order() const {
  std::vector<int> order = queue_;
  if (cfg_.policy == Policy::kFairShare) {
    // Least-served user first; queue position (arrival / requeue order)
    // breaks ties, so the sort must be stable over `queue_`.
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
      const Entry& ea = entries_[static_cast<size_t>(a)];
      const Entry& eb = entries_[static_cast<size_t>(b)];
      auto usage = [this](int user) {
        auto it = user_usage_.find(user);
        return it == user_usage_.end() ? 0.0 : it->second;
      };
      return usage(ea.spec.user) < usage(eb.spec.user);
    });
  }
  return order;
}

std::vector<int> Scheduler::try_alloc(int need) const {
  // check_busy = false is the oracle-self-test mutation: allocating from
  // the full machine makes concurrent jobs overlap on node 0.
  std::vector<int> free;
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    if (!cfg_.check_busy || !busy_[static_cast<size_t>(n)]) free.push_back(n);
  }
  if (static_cast<int>(free.size()) < need) return {};
  if (cfg_.placement == Placement::kContiguous) {
    // First fit on a contiguous physical range.
    int run = 0;
    for (int n = 0; n < cluster_.num_nodes(); ++n) {
      const bool ok = !cfg_.check_busy || !busy_[static_cast<size_t>(n)];
      run = ok ? run + 1 : 0;
      if (run == need) {
        std::vector<int> alloc;
        for (int k = n - need + 1; k <= n; ++k) alloc.push_back(k);
        return alloc;
      }
    }
    return {};
  }
  // Strided: spread the gang evenly over the free list. Any free count
  // >= need fits, so count-based admission (EASY shadow time) is exact.
  const int stride = static_cast<int>(free.size()) / need;
  std::vector<int> alloc;
  for (int i = 0; i < need; ++i) {
    alloc.push_back(free[static_cast<size_t>(i * stride)]);
  }
  return alloc;
}

double Scheduler::shadow_time(int head_need) const {
  // Earliest time the head's gang fits, assuming running jobs complete at
  // start + estimate. Overrunning jobs make the shadow `now` (their
  // estimated completion is in the past), which admits no backfill —
  // conservative, never delays the head further.
  int free_count = 0;
  for (bool b : busy_) {
    if (!b) ++free_count;
  }
  std::vector<std::pair<double, int>> running;  // (est complete, gang size)
  for (const Entry& e : entries_) {
    if (!e.running) continue;
    running.emplace_back(e.job->start_time + e.spec.estimated_duration,
                         e.spec.nodes);
  }
  std::sort(running.begin(), running.end());
  const double now = cluster_.sim().now();
  for (const auto& [at, n] : running) {
    if (free_count >= head_need) break;
    free_count += n;
    if (free_count >= head_need) return std::max(at, now);
  }
  return now;  // fits now count-wise (placement fragmentation): no slack
}

void Scheduler::pass() {
  for (;;) {
    if (queue_.empty()) return;
    const std::vector<int> order = service_order();
    const Entry& head = entries_[static_cast<size_t>(order[0])];
    std::vector<int> alloc = try_alloc(head.spec.nodes);
    if (!alloc.empty()) {
      start(order[0], std::move(alloc));
      continue;  // the free set changed; re-derive the order
    }
    if (cfg_.policy != Policy::kBackfill) return;
    // EASY: a later job may start now only if its estimate finishes before
    // the head's shadow time — the head's reservation is never pushed.
    const double shadow = shadow_time(head.spec.nodes);
    const double now = cluster_.sim().now();
    bool backfilled = false;
    for (size_t i = 1; i < order.size(); ++i) {
      const Entry& cand = entries_[static_cast<size_t>(order[i])];
      if (now + cand.spec.estimated_duration > shadow) continue;
      std::vector<int> fill = try_alloc(cand.spec.nodes);
      if (fill.empty()) continue;
      start(order[i], std::move(fill));
      backfilled = true;
      break;  // free set changed; restart the whole pass
    }
    if (!backfilled) return;
  }
}

void Scheduler::start(int idx, std::vector<int> alloc) {
  Entry& e = entries_[static_cast<size_t>(idx)];
  sim::Simulation& s = cluster_.sim();
  auto pos = std::find(queue_.begin(), queue_.end(), idx);
  assert(pos != queue_.end());
  queue_.erase(pos);
  e.queued = false;
  e.running = true;
  e.job->start_time = s.now();
  for (int n : alloc) busy_[static_cast<size_t>(n)] = true;
  if (sim::InvariantObserver* obs = s.invariant_observer(); obs != nullptr) {
    obs->job_started(e.spec.id, alloc);
  }
  std::string nodes;
  for (int n : alloc) {
    if (!nodes.empty()) nodes += ",";
    nodes += std::to_string(n);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%.9f start job=%d nodes=", s.now(),
                e.spec.id);
  line(buf + nodes);
  s.spawn(execute(idx, std::move(alloc)), "job" + std::to_string(e.spec.id));
}

sim::Proc<void> Scheduler::execute(int idx, std::vector<int> alloc) {
  Entry& e = entries_[static_cast<size_t>(idx)];
  sim::Simulation& s = cluster_.sim();
  co_await e.job->run(alloc);
  e.running = false;
  e.done = true;
  e.job->complete_time = s.now();
  const double span = e.job->complete_time - e.job->start_time;
  busy_node_seconds_ += span * static_cast<double>(e.spec.nodes);
  user_usage_[e.spec.user] += span * static_cast<double>(e.spec.nodes);
  for (int n : e.job->nodes()) busy_[static_cast<size_t>(n)] = false;
  if (sim::InvariantObserver* obs = s.invariant_observer(); obs != nullptr) {
    obs->job_completed(e.spec.id);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%.9f complete job=%d", s.now(),
                e.spec.id);
  line(buf);
  pass();
}

void Scheduler::line(const std::string& text) { transcript_.push_back(text); }

const Job& Scheduler::job(int job_id) const {
  auto it = by_id_.find(job_id);
  assert(it != by_id_.end());
  return *entries_[static_cast<size_t>(it->second)].job;
}

int Scheduler::completed_jobs() const {
  int n = 0;
  for (const Entry& e : entries_) {
    if (e.done) ++n;
  }
  return n;
}

double Scheduler::utilization() const {
  if (makespan_ <= 0.0) return 0.0;
  return busy_node_seconds_ /
         (static_cast<double>(cluster_.num_nodes()) * makespan_);
}

std::vector<double> Scheduler::wait_times() const {
  std::vector<std::pair<int, double>> byid;
  for (const Entry& e : entries_) {
    if (e.done) byid.emplace_back(e.spec.id, e.job->start_time - e.job->submit_time);
  }
  std::sort(byid.begin(), byid.end());
  std::vector<double> out;
  for (const auto& [id, w] : byid) out.push_back(w);
  return out;
}

}  // namespace dcuda::cluster
