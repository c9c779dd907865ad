#include "sim/simulation.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

namespace dcuda::sim {

namespace {

// Wraps a user process so that exceptions are captured into the join state
// instead of escaping through final_suspend (which would lose them).
Proc<void> root_runner(Proc<void> inner, std::shared_ptr<JoinHandle::State> st) {
  try {
    co_await std::move(inner);
  } catch (...) {
    st->exception = std::current_exception();
  }
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

// Worker-thread pool for multi-threaded windows. The main thread is worker
// 0; pool threads pick up their executor groups when the epoch advances and
// report back through an atomic countdown. Workers spin briefly before
// sleeping on the condition variable, and the main thread's completion wait
// spins with yields — windows are microseconds of work, so the barrier must
// not round-trip the scheduler when cores are available.
struct Simulation::Workers {
  Workers(Simulation& s, int nthreads) : sim(s) {
    pool.reserve(static_cast<size_t>(nthreads - 1));
    for (int w = 1; w < nthreads; ++w) {
      pool.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Workers() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop.store(true, std::memory_order_relaxed);
    }
    cv.notify_all();
    for (auto& t : pool) t.join();
  }

  int threads() const { return static_cast<int>(pool.size()) + 1; }

  // Executes one window across all groups; returns once every shard is done.
  void run_window(Time b, Time l, int g) {
    bound = b;
    limit = l;
    groups = g;
    remaining.store(static_cast<int>(pool.size()), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu);
      epoch.fetch_add(1, std::memory_order_release);
    }
    cv.notify_all();
    sim.exec_groups(0, threads(), groups, bound, limit);
    for (int spin = 0; remaining.load(std::memory_order_acquire) > 0; ++spin) {
      if (spin < 128) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  void worker_loop(int w) {
    std::uint64_t seen = 0;
    for (;;) {
      bool woke = false;
      for (int spin = 0; spin < 2048; ++spin) {
        if (stop.load(std::memory_order_relaxed)) return;
        if (epoch.load(std::memory_order_acquire) != seen) {
          woke = true;
          break;
        }
        cpu_relax();
      }
      if (!woke) {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] {
          return stop.load(std::memory_order_relaxed) ||
                 epoch.load(std::memory_order_acquire) != seen;
        });
        if (stop.load(std::memory_order_relaxed)) return;
      }
      seen = epoch.load(std::memory_order_acquire);
      sim.exec_groups(w, threads(), groups, bound, limit);
      remaining.fetch_sub(1, std::memory_order_release);
    }
  }

  Simulation& sim;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> remaining{0};
  std::atomic<bool> stop{false};
  Time bound = 0.0;
  Time limit = 0.0;
  int groups = 1;
  std::vector<std::thread> pool;
};

Simulation::Simulation() { shards_.push_back(std::make_unique<Shard>(0)); }

Simulation::~Simulation() {
  workers_.reset();  // join worker threads before tearing down shard state
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    // Destroy frames of processes that never completed (daemons, or roots
    // left behind after run_until / an exception). Frames are suspended, so
    // destroy is legal. Handles in triggers/resources become dangling but
    // are never resumed again because the simulation is gone.
    auto reap = [](std::vector<std::shared_ptr<JoinHandle::State>>& v) {
      for (auto& st : v) {
        if (!st->done && st->frame) st->frame.destroy();
      }
      v.clear();
    };
    reap(sh.live);
    reap(sh.daemons);
    // Free payloads of events still pending (or cancelled-but-unpopped): the
    // key heap plus the resume ring list exactly the occupied slots, once
    // each. (Ring slots are direct resumes and carry no payload, but walking
    // them keeps the invariant obvious.)
    for (std::size_t i = 0; i < sh.heap_size; ++i) {
      destroy_payload(
          slot(sh, static_cast<std::uint32_t>(sh.heap_data[i].key & kSlotMask)));
    }
    for (std::size_t i = sh.ring_head; i < sh.ring.size(); ++i) {
      destroy_payload(
          slot(sh, static_cast<std::uint32_t>(sh.ring[i].key & kSlotMask)));
    }
    heap_dealloc(sh);
    // Staged cross-shard events that never merged.
    for (Staged& e : sh.outbound) {
      if (e.destroy != nullptr) e.destroy(e.buf);
    }
    sh.outbound.clear();
  }
}

void Simulation::configure_shards(int n) {
  assert(n >= 1);
  assert(shards_.size() == 1 && "configure_shards may only be called once");
  assert(shards_[0]->pool_size == 0 && shards_[0]->next_seq == 0 &&
         "configure_shards must precede any scheduling");
  for (int k = 1; k < n; ++k) {
    shards_.push_back(std::make_unique<Shard>(k));
  }
  for (auto& sh : shards_) {
    if (has_perturb_) install_perturbation(*sh);
  }
}

void Simulation::heap_grow(Shard& sh) {
  // Element 0 sits 48 bytes into a 64-byte-aligned block so that elements
  // 4i+1 .. 4i+4 — the children of node i — share one cache line.
  const std::size_t cap = sh.heap_cap > 0 ? sh.heap_cap * 2 : 1024;
  void* raw = ::operator new(48 + cap * sizeof(HeapEntry), std::align_val_t{64});
  auto* data = reinterpret_cast<HeapEntry*>(static_cast<unsigned char*>(raw) + 48);
  if (sh.heap_size > 0) {
    std::memcpy(data, sh.heap_data, sh.heap_size * sizeof(HeapEntry));
  }
  heap_dealloc(sh);
  sh.heap_data = data;
  sh.heap_cap = cap;
}

void Simulation::heap_dealloc(Shard& sh) {
  if (sh.heap_data != nullptr) {
    ::operator delete(reinterpret_cast<unsigned char*>(sh.heap_data) - 48,
                      std::align_val_t{64});
    sh.heap_data = nullptr;
  }
}

void Simulation::heap_push(Shard& sh, HeapEntry e) {
  if (sh.heap_size == sh.heap_cap) heap_grow(sh);
  std::size_t i = sh.heap_size++;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!key_less(e, sh.heap_data[parent])) break;
    sh.heap_data[i] = sh.heap_data[parent];
    i = parent;
  }
  sh.heap_data[i] = e;
}

Simulation::HeapEntry Simulation::heap_pop(Shard& sh) {
  const HeapEntry top = sh.heap_data[0];
  const HeapEntry last = sh.heap_data[--sh.heap_size];
  const std::size_t n = sh.heap_size;
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      // The sift is a chain of dependent cache misses in a deep heap;
      // prefetching all four grandchild groups (one line each) overlaps the
      // next level's fetch with this level's compare, whichever child wins.
      const std::size_t gfirst = 4 * first + 1;
      if (gfirst < n) {
        __builtin_prefetch(&sh.heap_data[gfirst]);
        __builtin_prefetch(&sh.heap_data[gfirst + 4]);
        __builtin_prefetch(&sh.heap_data[gfirst + 8]);
        __builtin_prefetch(&sh.heap_data[gfirst + 12]);
      }
      std::size_t min_child = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (key_less(sh.heap_data[c], sh.heap_data[min_child])) min_child = c;
      }
      if (!key_less(sh.heap_data[min_child], last)) break;
      sh.heap_data[i] = sh.heap_data[min_child];
      i = min_child;
    }
    sh.heap_data[i] = last;
  }
  return top;
}

JoinHandle Simulation::spawn(Proc<void> p, std::string name, bool daemon) {
  Shard& home = cur();
  auto st = std::allocate_shared<JoinHandle::State>(
      PoolAllocator<JoinHandle::State>{});
  st->name = std::move(name);
  st->daemon = daemon;
  st->sim = this;
  st->home = home.index;

  Proc<void> runner = root_runner(std::move(p), st);
  auto h = runner.release();
  h.promise().detached = true;
  st->frame = h;
  // root_runner holds its own shared_ptr to the state, which outlives
  // final_suspend. The completion hook updates the spawning shard's
  // registry counters — processes that finish do so on their home shard
  // (the affinity asserts enforce this for multi-threaded windows).
  h.promise().on_final = &Simulation::root_finished;
  h.promise().on_final_ctx = st.get();
  auto& registry = daemon ? home.daemons : home.live;
  std::size_t& done_count = daemon ? home.done_daemons : home.done_live;
  registry.push_back(st);
  // Completed states would otherwise accumulate forever (one per spawned
  // process — millions in long runs). Compact only when at least half the
  // registry is dead, so workloads with thousands of concurrently live
  // processes don't rescan it on every spawn, and small registries not at
  // all. The threshold bounds how many dead states sit here instead of
  // being reused by the next spawns (their blocks return to the pool).
  if (registry.size() >= 256 && done_count * 2 >= registry.size()) {
    std::erase_if(registry, [](const auto& q) { return q->done; });
    done_count = 0;
  }
  schedule_resume(h);
  return JoinHandle(st);
}

void Simulation::root_finished(void* state) {
  auto* st = static_cast<JoinHandle::State*>(state);
  Simulation& sim = *st->sim;
  Shard& home = *sim.shards_[static_cast<size_t>(st->home)];
  st->done = true;
  st->frame = nullptr;
  ++(st->daemon ? home.done_daemons : home.done_live);
  if (st->exception && st->joiners.empty()) {
    home.escaped.push_back(st->exception);
  }
  for (auto j : st->joiners) sim.schedule_resume(j);
  st->joiners.clear();
}

Proc<void> JoinHandle::join() {
  struct Awaiter {
    State* st;
    bool await_ready() const noexcept { return st->done; }
    void await_suspend(std::coroutine_handle<> h) { st->joiners.push_back(h); }
    void await_resume() const noexcept {}
  };
  while (!st_->done) co_await Awaiter{st_.get()};
  if (st_->exception && !st_->exception_consumed) {
    st_->exception_consumed = true;
    std::rethrow_exception(st_->exception);
  }
}

bool Simulation::step(Shard& sh, Time bound, Time limit) {
  for (;;) {
    HeapEntry e;
    bool from_ring;
    const bool ring_pending = sh.ring_head < sh.ring.size();
    if (ring_pending && (sh.heap_size == 0 ||
                         key_less(sh.ring[sh.ring_head], sh.heap_data[0]))) {
      // Zero-delay resume ring: entries are pre-sorted (all at `now`, seq
      // ascending), so this is the shard's minimum.
      e = sh.ring[sh.ring_head];
      from_ring = true;
    } else if (sh.heap_size > 0) {
      e = sh.heap_data[0];
      from_ring = false;
    } else {
      return false;
    }
    // Window horizon (strict) and run_until limit (inclusive): events at or
    // past the bound stay queued for a later window.
    if (e.t >= bound || e.t > limit) return false;
    if (from_ring) {
      ++sh.ring_head;
      if (sh.ring_head == sh.ring.size()) {
        sh.ring.clear();
        sh.ring_head = 0;
      }
    } else {
      // Start fetching the winning event's slot line before the sift-down
      // touches the heap: the two are independent, so the slot arrives from
      // cache by the time dispatch needs it.
      __builtin_prefetch(
          &slot(sh, static_cast<std::uint32_t>(sh.heap_data[0].key & kSlotMask)));
      e = heap_pop(sh);
    }
    const std::uint32_t si = static_cast<std::uint32_t>(e.key & kSlotMask);
    EventSlot& s = slot(sh, si);
    if ((s.gen & kGenCancelled) != 0u) {
      destroy_payload(s);
      release_slot(sh, si);
      continue;
    }
    sh.now = e.t;
    ++sh.events_processed;
    if (s.invoke == nullptr) {
      // Direct resume. Release before resuming: the slot is immediately
      // reusable (warm for whatever the coroutine schedules next) and holds
      // no payload.
      void* addr;
      std::memcpy(&addr, s.buf, sizeof(addr));
      release_slot(sh, si);
      std::coroutine_handle<>::from_address(addr).resume();
    } else {
      // Invoke in place; the slot stays off the free list during the call,
      // and chunks never move, so `s` stays valid if the callback schedules
      // (and thereby grows the pool).
      s.invoke(s.buf);
      destroy_payload(s);
      release_slot(sh, si);
    }
    return true;
  }
}

void Simulation::exec_shard(Shard& sh, Time bound, Time limit) {
  ShardGuard g(*this, sh.index);
  try {
    while (step(sh, bound, limit)) {
    }
  } catch (...) {
    sh.window_exception = std::current_exception();
  }
}

// Worker w executes groups w, w + stride, ...; group g owns shards g,
// g + groups, .... The serial executor is worker 0 of stride 1.
void Simulation::exec_groups(int w, int stride, int groups, Time bound,
                             Time limit) {
  const int n = num_shards();
  for (int g = w; g < groups; g += stride) {
    for (int s = g; s < n; s += groups) {
      exec_shard(*shards_[static_cast<size_t>(s)], bound, limit);
    }
  }
}

// Applies every staged cross-shard event. For each destination, arrivals
// from all sources are ordered by (time, src shard, src sequence) — a fixed
// rule independent of which thread executed which shard — and then keyed
// with the destination's own insertion sequence, so the merged schedule is
// a pure function of the logical run. Gathering the lists in source order
// numbers the entries in (src shard, src sequence) order, so one sort on
// (dst, t, number) yields every destination's arrivals in turn.
void Simulation::merge_staged() {
  merge_scratch_.clear();
  for (auto& sh : shards_) {
    for (Staged& e : sh->outbound) {
      merge_scratch_.push_back(MergeEntry{
          e.t, e.dst, static_cast<std::uint32_t>(merge_scratch_.size()), &e});
    }
  }
  if (merge_scratch_.empty()) return;
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const MergeEntry& a, const MergeEntry& b) {
              if (a.dst != b.dst) return a.dst < b.dst;
              if (a.t != b.t) return a.t < b.t;
              return a.idx < b.idx;
            });
  for (const MergeEntry& m : merge_scratch_) {
    // Relocate the staged callable into a slot of the destination.
    Shard& to = *shards_[static_cast<size_t>(m.dst)];
    Staged& e = *m.e;
    const std::uint32_t si = acquire_slot(to);
    EventSlot& slot_ref = slot(to, si);
    e.relocate(slot_ref.buf, e.buf);
    slot_ref.invoke = e.invoke;
    slot_ref.destroy = e.destroy;
    push_key(to, e.t, si);
  }
  for (auto& sh : shards_) sh->outbound.clear();
}

void Simulation::run_events(Time limit) {
  const int n = num_shards();
  if (n > 1 && lookahead_ <= 0.0) {
    throw std::logic_error(
        "Simulation: multi-shard run requires a positive lookahead "
        "(register_lookahead)");
  }
  const int groups = exec_groups_req_ > 0 ? std::min(exec_groups_req_, n) : n;
  const int threads = std::min(exec_threads_req_, groups);
  if (threads > 1 && (workers_ == nullptr || workers_->threads() != threads)) {
    workers_ = std::make_unique<Workers>(*this, threads);
  }
  for (;;) {
    merge_staged();
    Time m = kInfTime;
    for (const auto& sh : shards_) m = std::min(m, next_time(*sh));
    if (m == kInfTime || m > limit) break;  // drained, or past run_until
    // A lone shard stays in step with nobody: one window runs it dry.
    const Time bound = n > 1 ? m + lookahead_ : kInfTime;
    if (threads > 1) {
      parallel_window_ = true;
      workers_->run_window(bound, limit, groups);
      parallel_window_ = false;
    } else {
      exec_groups(0, 1, groups, bound, limit);
    }
    for (auto& sh : shards_) {
      if (sh->window_exception) {
        auto ex = sh->window_exception;
        sh->window_exception = nullptr;
        std::rethrow_exception(ex);
      }
    }
  }
}

// Aligns every shard clock (and the global clock) on max(shard clocks,
// at_least). Runs after the queues drained, so advancing a lagging shard is
// safe, and keeps post-run scheduling from the main thread consistent: all
// clocks agree between runs, as if the engine had a single clock.
void Simulation::sync_clocks(Time at_least) {
  Time mx = at_least;
  for (const auto& sh : shards_) mx = std::max(mx, sh->now);
  for (auto& sh : shards_) sh->now = mx;
  global_now_ = mx;
}

void Simulation::run() {
  try {
    run_events(kInfTime);
  } catch (...) {
    sync_clocks(0.0);
    throw;
  }
  sync_clocks(0.0);
  rethrow_pending();
  check_deadlock();
}

void Simulation::run_until(Time t) {
  try {
    run_events(t);
  } catch (...) {
    sync_clocks(0.0);
    throw;
  }
  sync_clocks(t);
  rethrow_pending();
}

void Simulation::rethrow_pending() {
  for (const auto& sh : shards_) {
    if (!sh->escaped.empty()) {
      auto ex = sh->escaped.front();
      for (auto& s2 : shards_) s2->escaped.clear();
      std::rethrow_exception(ex);
    }
  }
}

void Simulation::check_deadlock() const {
  std::vector<std::string> stuck;
  for (const auto& sh : shards_) {
    for (const auto& st : sh->live) {
      if (!st->done) stuck.push_back(st->name);
    }
  }
  if (stuck.empty()) return;
  std::ostringstream os;
  os << "deadlock: " << stuck.size()
     << " process(es) blocked with no pending events:";
  for (const auto& n : stuck) os << ' ' << n;
  throw DeadlockError(os.str());
}

}  // namespace dcuda::sim
