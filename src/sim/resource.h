#pragma once

// Shared resources with simulated service times.
//
// SharedResource models processor sharing with a per-job rate cap: n active
// jobs each receive min(per_job_cap, capacity / n) units of service per
// second. This is the timing model for both SM compute throughput (resident
// blocks share issue bandwidth) and device memory bandwidth (a single block
// cannot saturate the memory interface — the per-job cap — while many blocks
// together are limited by aggregate bandwidth).
//
// FifoResource is a counting semaphore with FIFO handoff, used for
// serialized links (PCIe directions, NIC send queues).
//
// Perturbation contract (sim/perturb.h, docs/TESTING.md): a schedule
// perturbation may shuffle the firing order of *same-timestamp* events, so
// neither class may encode an ordering guarantee in event insertion order
// alone. SharedResource keys equal completion times on the admission
// sequence inside its own heap, and FifoResource grants slots from an
// explicit waiter deque — both orders therefore survive tie-break
// shuffling, which the perturbed property sweeps assert.

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <limits>

#include "sim/block_pool.h"
#include "sim/quad_heap.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace dcuda::sim {

class SharedResource {
 public:
  SharedResource(Simulation& sim, double capacity,
                 double per_job_cap = std::numeric_limits<double>::infinity());

  // Awaitable: completes once `work` units of service were delivered.
  // Zero/negative work completes after a zero-delay event (never inline).
  auto use(double work) {
    struct Awaiter {
      SharedResource* res;
      double work;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { res->add_job(work, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, work};
  }

  // Awaitable charge: one use(work) traced as a span — the frame-free form
  // of `begin = now(); co_await use(work); record span` (docs/PERF.md,
  // "Coroutine frames"). The span begins at suspend and ends at resume; it
  // is recorded only if `tracer` is enabled at resume.
  struct Charge {
    SharedResource* res;
    double work;
    Tracer* tracer;  // may be null
    const char* activity;
    std::int32_t device;
    std::int32_t lane;
    Category category;
    double bytes = 0.0;
    Time begin = 0.0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      begin = res->sim_.now();
      res->add_job(work, h);
    }
    void await_resume() const {
      if (tracer != nullptr && tracer->enabled()) {
        tracer->record(TraceSpan{begin, res->sim_.now(), device, lane, activity,
                                 category, bytes});
      }
    }
  };

  // Total service delivered so far (for utilization accounting in benches).
  double work_done() const;
  // Integral of busy time (at least one job active).
  double busy_time() const;

 private:
  void add_job(double work, std::coroutine_handle<> h);
  void advance();      // accrue virtual service up to now
  void reschedule();   // (re)arm the next completion event
  void on_complete();  // completion event fired
  double rate_per_job() const;

  // Shard affinity (docs/PERF.md, "Parallel engine"): resources are
  // node-local hardware (SM throughput, memory bandwidth, PCIe lanes), so
  // every use must come from the owning shard while a multi-threaded
  // window executes; serial runs are unrestricted.
  void assert_affinity() const {
    assert(!sim_.parallel_execution() || sim_.current_shard() == owner_shard_);
  }

  Simulation& sim_;
  int owner_shard_;
  double capacity_;
  double per_job_cap_;

  // Virtual service progress: every active job accrues service at the same
  // rate, so a job admitted at virtual time v with work w completes when the
  // virtual clock reaches v + w.
  //
  // Active jobs live in a flat 4-ary min-heap (sim/quad_heap.h) keyed on
  // (end, admission sequence): the sequence tie-break keeps FIFO order among
  // equal completion times, and the heap's block is reused, so admission
  // and completion are O(log n) with no per-job allocation once it is warm.
  struct Job {
    double end;         // completion virtual time
    std::uint64_t seq;  // admission order, breaks ties deterministically
    std::coroutine_handle<> h;
  };
  struct JobLess {
    bool operator()(const Job& a, const Job& b) const {
      if (a.end != b.end) return a.end < b.end;
      return a.seq < b.seq;
    }
  };

  double vclock_ = 0.0;
  Time last_update_ = 0.0;
  // Starts small: a 1024-job first block (the engine's) would cost 24 KB
  // per resource, ~340 MB across a 1024-node cluster.
  QuadHeap<Job, JobLess> jobs_{8};
  std::uint64_t next_job_seq_ = 0;
  EventId completion_;

  double work_done_ = 0.0;
  double busy_time_ = 0.0;
};

class FifoResource {
 public:
  explicit FifoResource(Simulation& sim, int capacity = 1)
      : sim_(sim), owner_shard_(sim.current_shard()), free_(capacity) {}

  auto acquire() {
    struct Awaiter {
      FifoResource* res;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        res->assert_affinity();
        if (res->free_ > 0) {
          --res->free_;
          // Resume through the engine (never inline) so acquisition stays
          // deterministic; the grant itself was decided here, so tie-break
          // perturbation can only shuffle wake-up interleaving, not who
          // holds the slot.
          res->sim_.schedule_resume(h);
          return true;
        }
        res->waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release() {
    assert_affinity();
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule_resume(h);  // slot handed over directly
    } else {
      ++free_;
    }
  }

  int available() const { return free_; }
  std::size_t queue_length() const { return waiters_.size(); }

 private:
  // Same shard-affinity contract as SharedResource: FIFO links are
  // node-local, so parallel windows may only touch them from their shard.
  void assert_affinity() const {
    assert(!sim_.parallel_execution() || sim_.current_shard() == owner_shard_);
  }

  Simulation& sim_;
  int owner_shard_;
  int free_;
  // Pooled: handing a slot over never mallocs.
  std::deque<std::coroutine_handle<>, PoolAllocator<std::coroutine_handle<>>>
      waiters_;
};

}  // namespace dcuda::sim
