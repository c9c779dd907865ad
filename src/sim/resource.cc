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
  if (job_count_ == 0) return 0.0;
  return std::min(per_job_cap_, capacity_ / static_cast<double>(job_count_));
}

void SharedResource::advance() {
  const Time now = sim_.now();
  const double dt = now - last_update_;
  if (dt > 0.0 && job_count_ > 0) {
    const double r = rate_per_job();
    vclock_ += dt * r;
    work_done_ += dt * r * static_cast<double>(job_count_);
    busy_time_ += dt;
  }
  last_update_ = now;
}

void SharedResource::insert_job(double end, std::coroutine_handle<> h) {
  const Job job{end, next_job_seq_++, h};
  std::size_t i = jobs_.size();
  jobs_.push_back(job);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!job_less(job, jobs_[parent])) break;
    jobs_[i] = jobs_[parent];
    i = parent;
  }
  jobs_[i] = job;
  ++job_count_;
}

SharedResource::Job SharedResource::pop_min_job() {
  const Job top = jobs_.front();
  const Job last = jobs_.back();
  jobs_.pop_back();
  const std::size_t n = jobs_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t min_child = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (job_less(jobs_[c], jobs_[min_child])) min_child = c;
      }
      if (!job_less(jobs_[min_child], last)) break;
      jobs_[i] = jobs_[min_child];
      i = min_child;
    }
    jobs_[i] = last;
  }
  --job_count_;
  return top;
}

void SharedResource::add_job(double work, std::coroutine_handle<> h) {
  assert_affinity();
  advance();
  insert_job(vclock_ + std::max(work, 0.0), h);
  reschedule();
}

void SharedResource::reschedule() {
  sim_.cancel(completion_);
  if (job_count_ == 0) return;
  const double next_end = jobs_.front().end;
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
  while (!jobs_.empty() && jobs_.front().end <= cutoff) {
    sim_.schedule_resume(pop_min_job().h);
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
         (job_count_ == 0 ? 0.0
                          : dt * rate_per_job() * static_cast<double>(job_count_));
}

double SharedResource::busy_time() const {
  const double dt = sim_.now() - last_update_;
  return busy_time_ + (job_count_ == 0 ? 0.0 : dt);
}

}  // namespace dcuda::sim
