#pragma once

// Discrete-event simulation core.
//
// The engine is sharded (docs/PERF.md, "Parallel engine"). Every shard owns
// a complete event engine — payload slot pool, 4-ary key min-heap,
// zero-delay resume ring, insertion sequence, perturbation streams — and
// fires its events in (time, insertion-sequence) order. configure_shards(n)
// splits the simulation into n shards (Cluster maps one node per shard);
// a simulation starts with one. Every run advances the shards under one
// conservative time-window loop: each window executes every event with
// t < min(next-event time over all shards) + lookahead, where the lookahead
// is the smallest cross-shard link latency registered by the fabric
// (Fabric registers NetConfig::latency). No cross-shard event can land
// inside the window it was sent from — the wire latency guarantees its
// arrival time is at or past the horizon — so shards never observe an
// arrival out of order. A lone shard has nothing to wait for: its window
// has no upper bound, so it needs no lookahead. Cross-shard events
// (schedule_on) are staged into the source shard's one outbound list and
// merged at window open by a single sort, each destination receiving its
// arrivals in (time, src shard, src sequence) order, then keyed with the
// destination's own insertion sequence.
//
// Determinism is executor-independent by construction: the window
// boundaries, the merge order, and each shard's event order are functions
// of the logical schedule alone — never of the executor-group count or the
// worker-thread count (set_executor). A seeded run replays byte-identically
// with 1 thread or N; the golden cases (tests/golden/cases.txt) and
// tests/engine_parallel_test enforce this.
//
// Engine layout (docs/PERF.md): event payloads live in 64-byte slots —
// exactly one cache line each — allocated in fixed-size chunks and recycled
// through an intrusive free list. A slot holds either a coroutine handle
// resumed directly (the hot path, marked by a null invoke pointer) or a
// small callback constructed in place in the slot's inline buffer; larger
// callbacks fall back to one heap allocation whose pointer lives in the
// buffer instead. The pending set is a 4-ary min-heap of 16-byte
// (time, seq|slot) keys stored so that each 4-child group spans exactly one
// cache line — sift operations move keys, never payloads. Cancellation is a
// (slot, generation) comparison: the generation advances on every release,
// which invalidates every outstanding EventId for the slot, and its low bit
// doubles as the cancelled flag. In steady state (chunks warm, callbacks
// within the inline buffer) scheduling and dispatching allocate nothing.

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/perturb.h"
#include "sim/proc.h"
#include "sim/quad_heap.h"
#include "sim/shard_context.h"
#include "sim/units.h"

namespace dcuda::sim {

class Simulation;
class InvariantObserver;

// Thrown by Simulation::run when non-daemon processes remain but no events
// are pending: every remaining process waits on a condition nobody can
// signal. Mirrors the deadlock hazard of §II-B (blocks beyond the number in
// flight can never be synchronized).
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

// Handle to a cancellable event (timeouts, rescheduled completion events of
// shared resources): a (shard, slot, generation) triple into the owning
// shard's event pool, passed to Simulation::cancel and Simulation::pending.
// Once the event fires or is cancelled the slot's generation moves on, so a
// stale handle reads as not pending and cancelling it is a no-op. Live
// generations are never 0, so a default handle (gen 0) is never pending and
// never touches the pool. Handles are shard-affine: cancel and pending read
// the owning shard's pool, so during a multi-threaded window only that shard
// may use them (resource completions and go-back-N retransmit timers keep
// theirs shard-local). A handle must not outlive its Simulation.
struct EventId {
  std::uint32_t shard = 0;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};
static_assert(std::is_trivially_copyable_v<EventId>);

// Handle to a spawned root process; join() suspends until it completes and
// rethrows any exception that escaped the process.
class JoinHandle {
 public:
  JoinHandle() = default;
  bool valid() const { return static_cast<bool>(st_); }
  bool done() const;
  const std::string& name() const;
  Proc<void> join();

  struct State;  // public: Simulation and the root runner manipulate it

 private:
  friend class Simulation;
  explicit JoinHandle(std::shared_ptr<State> st) : st_(std::move(st)) {}
  std::shared_ptr<State> st_;
};

// RAII scope that marks the calling thread as executing inside a given
// shard of `sim`. The engine sets it around every window; Cluster sets it
// around per-node machine construction so daemons spawned by a node's
// components land in that node's shard.
class ShardGuard {
 public:
  // Defined after Simulation: it resolves the shard's address so the hot
  // accessors (now, cur) reach the active shard in a single dereference.
  ShardGuard(const Simulation& sim, int shard);
  ~ShardGuard() { detail::tls_shard_ctx = prev_; }
  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  detail::ShardContext prev_;
};

class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time: the executing shard's clock from inside the
  // run, the global (maximum) clock from outside.
  Time now() const {
    const detail::ShardContext& ctx = detail::tls_shard_ctx;
    if (ctx.engine == this) return static_cast<const Shard*>(ctx.active)->now;
    return global_now_;
  }

  // -- Sharding (docs/PERF.md, "Parallel engine") ----------------------

  // Splits the simulation into `n` shards. Must be called before anything
  // is scheduled (Cluster calls it first thing, one shard per node). The
  // shard layout is part of the logical schedule: a given workload always
  // runs with the same shard count regardless of executor knobs.
  void configure_shards(int n);
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Shard owning node/index `id` (identity while one shard per node).
  int shard_for(int id) const { return id % num_shards(); }

  // Registers a cross-shard causality bound: no schedule_on between
  // distinct shards may use a delay below the smallest registered value.
  // The fabric registers its wire latency — the paper's 1.4 us — which
  // makes every window at least one wire flight long.
  void register_lookahead(Dur d) {
    if (lookahead_ <= 0.0 || d < lookahead_) lookahead_ = d;
  }
  Dur lookahead() const { return lookahead_; }

  // Executor knobs (never affect results, only wall-clock): `groups`
  // executor groups (0 = one per shard) each execute their shards in
  // sequence; `threads` worker threads execute the groups of every window.
  void set_executor(int groups, int threads) {
    exec_groups_req_ = groups;
    exec_threads_req_ = threads < 1 ? 1 : threads;
  }

  // True while a multi-threaded window is executing. Shard-affinity asserts
  // (sim/trigger.h, sim/resource.h) fire only then: serial cross-shard
  // hand-offs are causally ordered by the window protocol, parallel ones
  // would race.
  bool parallel_execution() const { return parallel_window_; }
  // Shard the calling thread is executing for this engine (0 outside).
  int current_shard() const {
    const detail::ShardContext& ctx = detail::tls_shard_ctx;
    return ctx.engine == this ? ctx.shard : 0;
  }

  // -- Event scheduling ------------------------------------------------

  // Schedules `fn` to run after `delay` on the current shard. The callable
  // is moved into the event slot's inline buffer when it fits
  // (kInlineBytes); larger callables fall back to one heap allocation,
  // counted in pool_stats().
  template <typename F>
  void schedule(Dur delay, F&& fn) {
    Shard& sh = cur();
    emplace_event(sh, sh.now + delay, std::forward<F>(fn));
  }

  // Schedules `fn` onto shard `dst` after `delay` of the caller's clock.
  // Same-shard calls take the normal path. Cross-shard calls made during a
  // windowed run are staged into the source shard's outbound list and
  // merged into the destination at the next window boundary in (time,
  // src shard, src sequence) order; the delay must respect the registered
  // lookahead so the event lands at or past the window horizon. The
  // callable must fit an event slot's inline buffer: it is staged inline
  // and moved into a slot at the merge, never onto the heap.
  template <typename F>
  void schedule_on(int dst, Dur delay, F&& fn) {
    assert(dst >= 0 && dst < num_shards());
    Shard& src = cur();
    if (dst == src.index || detail::tls_shard_ctx.engine != this) {
      // Same shard, or scheduling from outside the run (construction,
      // between runs): emplace directly — the main thread owns every shard
      // there, and clocks agree (sync'd at the end of each run).
      emplace_event(*shards_[static_cast<size_t>(dst)], src.now + delay,
                    std::forward<F>(fn));
      return;
    }
    assert(lookahead_ > 0.0 && delay >= lookahead_ &&
           "cross-shard delay below the registered lookahead");
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= EventSlot::kInlineBytes &&
                      alignof(D) <= alignof(std::max_align_t),
                  "cross-shard callables must fit an event slot inline");
    Staged& e = src.outbound.emplace_back(src.now + delay, dst, &invoke_inline<D>,
                                          destroy_fn<D>(), &relocate_inline<D>);
    ::new (static_cast<void*>(e.buf)) D(std::forward<F>(fn));
  }

  template <typename F>
  EventId schedule_cancellable(Dur delay, F&& fn) {
    Shard& sh = cur();
    const std::uint32_t si = emplace_event(sh, sh.now + delay, std::forward<F>(fn));
    return EventId{static_cast<std::uint32_t>(sh.index), si, slot(sh, si).gen};
  }
  // Cancels the event if it is still pending and resets `id`.
  void cancel(EventId& id) {
    if (id.gen != 0) {
      EventSlot& s = slot(*shards_[id.shard], id.slot);
      if (s.gen == id.gen) s.gen = id.gen | kGenCancelled;
    }
    id = EventId{};
  }
  bool pending(EventId id) const {
    return id.gen != 0 && slot(*shards_[id.shard], id.slot).gen == id.gen;
  }

  // Direct coroutine resumption: no callable at all, just the handle.
  // Zero-delay resumes — the dominant event in trigger notifies, FIFO
  // handoffs, and spawns — bypass the heap through a FIFO ring: they all
  // carry the current time, so their (time, seq) keys arrive pre-sorted.
  void schedule_resume(std::coroutine_handle<> h, Dur delay = 0.0) {
    Shard& sh = cur();
    const std::uint32_t si = acquire_slot(sh);
    EventSlot& s = slot(sh, si);
    s.invoke = nullptr;  // marks the slot as a direct resume
    void* addr = h.address();
    std::memcpy(s.buf, &addr, sizeof(addr));
    if (delay == 0.0 && !tiebreak_active(sh)) {
      sh.ring.push_back(HeapEntry{sh.now, make_key(sh, si)});
    } else {
      // Under tie-break perturbation the ring's precondition (keys arrive
      // pre-sorted) no longer holds, so zero-delay resumes take the heap.
      sh.heap.push(HeapEntry{sh.now + delay, make_key(sh, si)});
    }
  }

  // -- Processes -------------------------------------------------------

  // Starts a root process at the current time on the current shard. Daemon
  // processes are allowed to outlive the simulation (they are excluded from
  // deadlock detection and their frames are reclaimed by ~Simulation).
  JoinHandle spawn(Proc<void> p, std::string name = "proc", bool daemon = false);

  // Starts a root process on a specific shard (Cluster spawns each node's
  // ranks into that node's shard).
  JoinHandle spawn_on(int shard, Proc<void> p, std::string name = "proc",
                      bool daemon = false) {
    assert(shard >= 0 && shard < num_shards());
    ShardGuard g(*this, shard);
    return spawn(std::move(p), std::move(name), daemon);
  }

  // Awaitable: suspend the calling process for `delay` simulated time.
  auto delay(Dur d) {
    struct Awaiter {
      Simulation& sim;
      Dur d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.schedule_resume(h, d); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  // -- Running ---------------------------------------------------------

  // Runs until the event queue drains. Throws DeadlockError if non-daemon
  // processes remain unfinished, and rethrows the first exception that
  // escaped an unjoined root process.
  void run();

  // Runs until simulated time `t` (events at exactly t are processed).
  // Remaining processes are not treated as deadlocked.
  void run_until(Time t);

  std::size_t events_processed() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += sh->events_processed;
    return n;
  }

  // -- Schedule perturbation (docs/TESTING.md) -------------------------

  // Installs a seeded perturbation policy. Must be called before the first
  // event is scheduled (the fuzz harness installs it right after
  // construction); the run remains fully deterministic — a function of
  // (workload, seed, classes, shard layout) only. Every shard gets its own
  // stream set, derived from the seed and the shard index; shard 0 keeps
  // the raw seed, so single-shard runs draw the historical sequences.
  void set_perturbation(std::uint64_t seed,
                        std::uint32_t classes = Perturbation::kAllClasses) {
    perturb_seed_ = seed;
    perturb_classes_ = classes;
    has_perturb_ = true;
    for (auto& sh : shards_) install_perturbation(*sh);
  }
  // The executing shard's perturbation (shard 0's outside the run).
  Perturbation* perturbation() { return cur().perturb.get(); }
  const Perturbation* perturbation() const { return cur().perturb.get(); }

  // Invariant-oracle hook sink (src/sim/invariants.h). Null in normal runs;
  // components report protocol transitions through it when set. Not owned.
  // The observer's hooks serialize internally, so oracle checking works
  // under multi-threaded windows too.
  void set_invariant_observer(InvariantObserver* obs) { observer_ = obs; }
  InvariantObserver* invariant_observer() const { return observer_; }

  // -- Engine introspection (docs/PERF.md) -----------------------------

  // Allocation accounting for the steady-state zero-allocation guarantee:
  // once the pool and heap are warm, `pool_growths` and `heap_fallbacks`
  // stop increasing — every schedule/dispatch reuses pooled storage.
  // Aggregated over shards.
  struct PoolStats {
    std::size_t pool_slots = 0;        // slots ever created
    std::size_t free_slots = 0;        // currently on the free list
    std::size_t pending_events = 0;    // keys in heaps/rings + staged
    std::uint64_t pool_growths = 0;    // pool chunk allocations
    std::uint64_t heap_fallbacks = 0;  // callables too big for inline buffer
  };
  PoolStats pool_stats() const {
    PoolStats p;
    for (const auto& sh : shards_) {
      p.pool_slots += sh->pool_size;
      p.free_slots += sh->free_count;
      p.pending_events += sh->heap.size() + (sh->ring.size() - sh->ring_head);
      p.pending_events += sh->outbound.size();
      p.pool_growths += sh->pool_growths;
      p.heap_fallbacks += sh->heap_fallbacks;
    }
    return p;
  }

 private:
  friend class ShardGuard;

  // Payload slot: exactly one cache line. The cancelled flag
  // (kGenCancelled) travels with the generation value, so an EventId
  // comparing its remembered generation simultaneously checks liveness and
  // cancellation. Releasing a slot rounds the generation up to the next
  // multiple of kGenStep, invalidating every outstanding EventId for it,
  // and skips 0, which stays reserved for the default EventId. The
  // generation is 32-bit (31 usable bits); a stale EventId would be revived
  // only if it survived exactly 2^31 - 1 reuses of its slot.
  struct EventSlot {
    static constexpr std::size_t kInlineBytes = 40;

    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    void (*invoke)(void*) = nullptr;   // null: buf holds a coroutine address
    void (*destroy)(void*) = nullptr;  // non-null: payload needs teardown
    std::uint32_t gen = kGenStep;
    std::uint32_t next_free = kNilSlot;
  };
  static_assert(sizeof(EventSlot) == 64, "EventSlot must be one cache line");

  static constexpr std::uint32_t kGenCancelled = 1u;
  static constexpr std::uint32_t kGenStep = 2u;

  // Heap key: 16 bytes. `key` packs (seq << kSlotBits) | slot — seq is
  // strictly increasing, so comparing packed keys compares sequence numbers
  // and the slot index rides along for free.
  struct HeapEntry {
    Time t;
    std::uint64_t key;
  };
  struct KeyLess {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.t != b.t) return a.t < b.t;
      return a.key < b.key;  // earlier sequence first
    }
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1u;

  // Slots live in fixed 64 KiB chunks: addresses are stable (callbacks may
  // schedule, growing the pool, while the engine still points at their
  // slot), indexing is shift+mask, and growth never copies.
  static constexpr unsigned kChunkBits = 10;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkBits;

  static constexpr Time kInfTime = std::numeric_limits<Time>::infinity();

  // Type-erased operations on a callable of type D held in a raw buffer.
  template <typename D>
  static void invoke_inline(void* p) {
    (*static_cast<D*>(p))();
  }
  template <typename D>
  static void (*destroy_fn())(void*) {
    if constexpr (std::is_trivially_destructible_v<D>) {
      return nullptr;
    } else {
      return [](void* p) { static_cast<D*>(p)->~D(); };
    }
  }
  // Move-constructs into `to` and destroys the source.
  template <typename D>
  static void relocate_inline(void* to, void* from) {
    D* f = static_cast<D*>(from);
    ::new (to) D(std::move(*f));
    f->~D();
  }

  // A cross-shard event parked in its source shard's outbound list until
  // the next window boundary, its callable inline as in an event slot.
  // Moving an entry relocates the callable, so the list may reallocate; the
  // callable is destroyed only by whoever consumes the entry (the merge
  // relocates it into a slot, teardown destroys it).
  struct Staged {
    Staged(Time time, int d, void (*inv)(void*), void (*des)(void*),
           void (*rel)(void*, void*))
        : t(time), dst(d), invoke(inv), destroy(des), relocate(rel) {}
    Staged(Staged&& o) noexcept
        : t(o.t), dst(o.dst), invoke(o.invoke), destroy(o.destroy),
          relocate(o.relocate) {
      relocate(buf, o.buf);
    }
    Staged(const Staged&) = delete;
    Staged& operator=(const Staged&) = delete;
    Staged& operator=(Staged&&) = delete;

    Time t;
    int dst;                 // destination shard
    void (*invoke)(void*);   // call the callable (does not destroy it)
    void (*destroy)(void*);  // null: trivially destructible
    void (*relocate)(void*, void*);
    alignas(std::max_align_t) unsigned char buf[EventSlot::kInlineBytes];
  };

  // One node-stack's event engine. Everything a window touches is local to
  // the shard; worker threads never share shard state inside a window.
  struct Shard {
    explicit Shard(int idx) : index(idx) {}
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    const int index;
    Time now = 0.0;
    std::uint64_t next_seq = 0;
    std::size_t events_processed = 0;

    // 4-ary min-heap of keys, one cache line per child group
    // (sim/quad_heap.h); the first block holds 1024 keys.
    QuadHeap<HeapEntry, KeyLess> heap{1024};

    // FIFO ring of zero-delay resumes. Every entry's time equals `now` — no
    // event can fire in between without violating (time, seq) order — and
    // the backing vector is reused once drained, so pushes are
    // allocation-free in steady state. Rings always drain within a window:
    // pushes carry the current time, which is below the horizon.
    std::vector<HeapEntry> ring;
    std::size_t ring_head = 0;

    std::vector<std::unique_ptr<EventSlot[]>> chunks;
    std::size_t pool_size = 0;
    std::uint32_t free_head = kNilSlot;
    std::size_t free_count = 0;
    std::uint64_t pool_growths = 0;
    std::uint64_t heap_fallbacks = 0;

    std::unique_ptr<Perturbation> perturb;  // null: canonical schedule

    // Root-process registries. Spawns and completions run inside shard
    // execution, so they must not share storage across shards.
    std::vector<std::shared_ptr<JoinHandle::State>> live;
    std::vector<std::shared_ptr<JoinHandle::State>> daemons;
    std::size_t done_live = 0;   // completed-but-uncompacted, per registry
    std::size_t done_daemons = 0;
    std::vector<std::exception_ptr> escaped;  // from unjoined roots

    // Cross-shard staging in send order, every destination in one list.
    std::vector<Staged> outbound;
    std::exception_ptr window_exception;
  };

  struct Workers;  // worker-thread pool (defined in simulation.cc)

  // Completion hook of a spawned root (PromiseBase::on_final); `state` is
  // its JoinHandle::State.
  static void root_finished(void* state);

  Shard& cur() {
    const detail::ShardContext& ctx = detail::tls_shard_ctx;
    if (ctx.engine == this) return *static_cast<Shard*>(ctx.active);
    return *shards_[0];
  }
  const Shard& cur() const {
    const detail::ShardContext& ctx = detail::tls_shard_ctx;
    if (ctx.engine == this) return *static_cast<const Shard*>(ctx.active);
    return *shards_[0];
  }

  static EventSlot& slot(Shard& sh, std::uint32_t i) {
    return sh.chunks[i >> kChunkBits][i & (kChunkSlots - 1)];
  }
  static const EventSlot& slot(const Shard& sh, std::uint32_t i) {
    return sh.chunks[i >> kChunkBits][i & (kChunkSlots - 1)];
  }

  static std::uint32_t acquire_slot(Shard& sh) {
    if (sh.free_head != kNilSlot) {
      const std::uint32_t s = sh.free_head;
      sh.free_head = slot(sh, s).next_free;
      --sh.free_count;
      return s;
    }
    assert(sh.pool_size < kSlotMask && "event pool exhausted (2^24 pending)");
    if (sh.pool_size == sh.chunks.size() * kChunkSlots) {
      sh.chunks.emplace_back(new EventSlot[kChunkSlots]);
      ++sh.pool_growths;
    }
    return static_cast<std::uint32_t>(sh.pool_size++);
  }

  static void release_slot(Shard& sh, std::uint32_t si) {
    EventSlot& s = slot(sh, si);
    s.gen = (s.gen | (kGenStep - 1u)) + 1u;  // next generation, flag cleared
    if (s.gen == 0) s.gen = kGenStep;
    s.next_free = sh.free_head;
    sh.free_head = si;
    ++sh.free_count;
  }

  static void destroy_payload(EventSlot& s) {
    if (s.invoke != nullptr && s.destroy != nullptr) s.destroy(s.buf);
  }

  template <typename F>
  std::uint32_t emplace_event(Shard& sh, Time t, F&& fn) {
    using D = std::decay_t<F>;
    const std::uint32_t si = acquire_slot(sh);
    EventSlot& s = slot(sh, si);
    if constexpr (sizeof(D) <= EventSlot::kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.buf)) D(std::forward<F>(fn));
      s.invoke = &invoke_inline<D>;
      s.destroy = destroy_fn<D>();
    } else {
      // Too big for the slot: one heap allocation, its pointer parked in
      // the inline buffer so dispatch stays uniform.
      ::new (static_cast<void*>(s.buf)) D*(new D(std::forward<F>(fn)));
      s.invoke = [](void* p) { (**static_cast<D**>(p))(); };
      s.destroy = [](void* p) { delete *static_cast<D**>(p); };
      ++sh.heap_fallbacks;
    }
    push_key(sh, t, si);
    return si;
  }

  static bool tiebreak_active(const Shard& sh) {
    return sh.perturb != nullptr && sh.perturb->has(Perturbation::kTieBreak);
  }

  // Key for a newly scheduled event. Default: strictly increasing insertion
  // sequence in the high bits (FIFO among same-time events). Under tie-break
  // perturbation: seeded random priority bits instead, so same-time events
  // fire in a seed-determined shuffle; the slot index in the low bits keeps
  // the comparison total, so replays of a seed are exact. Events at distinct
  // times are unaffected either way.
  static std::uint64_t make_key(Shard& sh, std::uint32_t si) {
    if (tiebreak_active(sh)) {
      constexpr std::uint64_t kPrioMask =
          (std::uint64_t{1} << (64 - kSlotBits)) - 1u;
      return ((sh.perturb->tiebreak_bits() & kPrioMask) << kSlotBits) | si;
    }
    assert(sh.next_seq < (std::uint64_t{1} << (64 - kSlotBits)) &&
           "event sequence numbers exhausted");
    return (sh.next_seq++ << kSlotBits) | si;
  }

  static void push_key(Shard& sh, Time t, std::uint32_t si) {
    sh.heap.push(HeapEntry{t, make_key(sh, si)});
  }

  void install_perturbation(Shard& sh) {
    // Per-shard stream derivation: shard 0 keeps the raw seed (historical
    // single-shard sequences), higher shards mix in their index.
    const std::uint64_t salted =
        perturb_seed_ ^
        (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(sh.index));
    sh.perturb = std::make_unique<Perturbation>(salted, perturb_classes_);
  }

  static Time next_time(const Shard& sh) {
    if (sh.ring_head < sh.ring.size()) return sh.ring[sh.ring_head].t;
    if (!sh.heap.empty()) return sh.heap.top().t;
    return kInfTime;
  }

  // Processes one event of `sh` with t < bound and t <= limit; false when
  // none qualifies. A lone shard's window passes bound = inf.
  bool step(Shard& sh, Time bound, Time limit);
  void exec_shard(Shard& sh, Time bound, Time limit);
  void exec_groups(int w, int stride, int groups, Time bound, Time limit);
  void run_events(Time limit);
  void merge_staged();
  void sync_clocks(Time at_least);
  void check_deadlock() const;
  void rethrow_pending();

  std::vector<std::unique_ptr<Shard>> shards_;
  Time global_now_ = 0.0;

  Dur lookahead_ = 0.0;      // 0 until a link registers one
  int exec_groups_req_ = 0;  // 0 = one group per shard
  int exec_threads_req_ = 1;
  bool parallel_window_ = false;
  std::unique_ptr<Workers> workers_;
  // A staged event in merge order: (dst, t, idx), where idx counts the
  // gather in (src shard, src sequence) order.
  struct MergeEntry {
    Time t;
    int dst;
    std::uint32_t idx;
    Staged* e;
  };
  std::vector<MergeEntry> merge_scratch_;

  std::uint64_t perturb_seed_ = 0;
  std::uint32_t perturb_classes_ = 0;
  bool has_perturb_ = false;
  InvariantObserver* observer_ = nullptr;  // null: no oracle checking
};

inline ShardGuard::ShardGuard(const Simulation& sim, int shard)
    : prev_(detail::tls_shard_ctx) {
  detail::tls_shard_ctx = detail::ShardContext{
      &sim, sim.shards_[static_cast<size_t>(shard)].get(), shard};
}

struct JoinHandle::State {
  std::string name;
  bool done = false;
  bool daemon = false;
  bool exception_consumed = false;
  std::exception_ptr exception;
  std::vector<std::coroutine_handle<>> joiners;
  Simulation* sim = nullptr;
  int home = 0;                   // spawning shard (owns the registry entry)
  std::coroutine_handle<> frame;  // for cleanup if never completed
};

inline bool JoinHandle::done() const { return st_ && st_->done; }

inline const std::string& JoinHandle::name() const {
  static const std::string kInvalid;
  return st_ ? st_->name : kInvalid;
}

}  // namespace dcuda::sim
