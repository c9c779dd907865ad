#include "sim/resource.h"

#include <algorithm>
#include <cassert>

namespace dcuda::sim {

namespace {
// Virtual-clock slack for simultaneous completions: jobs whose end lies
// within this relative distance of the clock complete together.
constexpr double kRelEps = 1e-9;
}  // namespace

SharedResource::SharedResource(Simulation& sim, double capacity, double per_job_cap)
    : sim_(sim),
      owner_shard_(sim.current_shard()),
      capacity_(capacity),
      per_job_cap_(per_job_cap) {
  assert(capacity > 0.0);
  assert(per_job_cap > 0.0);
}

double SharedResource::rate_per_job() const {
  if (jobs_.empty()) return 0.0;
  return std::min(per_job_cap_, capacity_ / static_cast<double>(jobs_.size()));
}

void SharedResource::advance() {
  const Time now = sim_.now();
  const double dt = now - last_update_;
  if (dt > 0.0 && !jobs_.empty()) {
    const double r = rate_per_job();
    vclock_ += dt * r;
    work_done_ += dt * r * static_cast<double>(jobs_.size());
    busy_time_ += dt;
  }
  last_update_ = now;
}

void SharedResource::add_job(double work, std::coroutine_handle<> h) {
  assert_affinity();
  advance();
  jobs_.push(Job{vclock_ + std::max(work, 0.0), next_job_seq_++, h});
  reschedule();
}

void SharedResource::reschedule() {
  sim_.cancel(completion_);
  if (jobs_.empty()) return;
  const double next_end = jobs_.top().end;
  const double r = rate_per_job();
  const double dt = std::max(0.0, (next_end - vclock_) / r);
  completion_ = sim_.schedule_cancellable(dt, [this] { on_complete(); });
}

void SharedResource::on_complete() {
  advance();
  // Pop every job whose end time is reached (allowing for rounding slack).
  // schedule_resume only enqueues, so resuming in pop order — (end, seq)
  // ascending — preserves the deterministic completion order without a
  // scratch vector.
  const double cutoff = vclock_ * (1.0 + kRelEps) + 1e-18;
  std::size_t finished = 0;
  while (!jobs_.empty() && jobs_.top().end <= cutoff) {
    sim_.schedule_resume(jobs_.pop().h);
    ++finished;
  }
  assert(finished > 0);
  (void)finished;
  reschedule();
}

double SharedResource::work_done() const {
  // Include service accrued since the last event.
  const double dt = sim_.now() - last_update_;
  return work_done_ +
         (jobs_.empty() ? 0.0
                        : dt * rate_per_job() * static_cast<double>(jobs_.size()));
}

double SharedResource::busy_time() const {
  const double dt = sim_.now() - last_update_;
  return busy_time_ + (jobs_.empty() ? 0.0 : dt);
}

}  // namespace dcuda::sim
