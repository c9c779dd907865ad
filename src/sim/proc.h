#pragma once

// Coroutine process type for the discrete-event simulator.
//
// A Proc<T> is a lazily-started coroutine. Awaiting it starts the child and
// transfers control back to the parent (symmetric transfer) when the child
// reaches final_suspend. Root processes are started with Simulation::spawn,
// which drives them from the event queue and self-destroys the frame at
// completion. Exceptions propagate to the awaiter / join handle.
//
// All of this is strictly single-threaded: the simulator owns every resume.
//
// Frames up to 1 KiB come from the block pool's frame arena
// (sim/block_pool.h; docs/PERF.md, "Coroutine frames"), so once a thread's
// lists are warm a Proc call allocates nothing. Larger frames use the global
// heap directly. A frame freed on another thread than the one that made it
// goes to that thread's lists (or the pool's shared depot). Under
// AddressSanitizer cached frames stay poisoned, so a use after destroy is
// still reported.

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "sim/block_pool.h"

namespace dcuda::sim {

template <typename T = void>
class Proc;

// Frame-pool counters, summed over every thread (live and exited).
struct FramePoolStats {
  std::uint64_t served = 0;  // frames handed out (every Proc call)
  std::uint64_t fresh = 0;   // of those, taken from the global heap
};
FramePoolStats frame_pool_stats();

namespace detail {

inline constexpr std::size_t kPooledFrameBytes = 1024;

// One thread's frame counters, created when the thread makes its first
// frame and never freed, so frame_pool_stats() can sum them after the
// thread exits. Written only by the owning thread and read from any thread;
// they are statistics, so relaxed atomics suffice (plain loads and stores
// on x86).
struct FrameCounters {
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> fresh{0};

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
};
inline constinit thread_local FrameCounters* tls_frame_counters = nullptr;

// Slow paths (proc.cc): the thread's first frame, and frames its block
// lists cannot serve.
FrameCounters& attach_frame_counters();
void* frame_alloc_slow(std::size_t n, FrameCounters& k);

struct PromiseBase {
  static void* operator new(std::size_t n) {
    FrameCounters* k = tls_frame_counters;
    if (k == nullptr) [[unlikely]] k = &attach_frame_counters();
    FrameCounters::bump(k->served);
    if (n <= kPooledFrameBytes) [[likely]] {
      if (void* p = block_pop(n, Arena::kFrames)) [[likely]] return p;
    }
    return frame_alloc_slow(n, *k);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    if (n <= kPooledFrameBytes) [[likely]] {
      block_free(p, n, Arena::kFrames);
    } else {
      ::operator delete(p, n);
    }
  }

  std::coroutine_handle<> continuation;  // parent awaiting this coroutine
  std::exception_ptr exception;
  // Set by Simulation::spawn for root coroutines; invoked with on_final_ctx
  // at final suspend.
  void (*on_final)(void*) = nullptr;
  void* on_final_ctx = nullptr;
  bool detached = false;  // frame self-destroys at final suspend

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.on_final) p.on_final(p.on_final_ctx);
      if (p.detached) h.destroy();
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Proc<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Proc<void> get_return_object();
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Proc {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Proc() = default;
  explicit Proc(Handle h) : h_(h) {}
  Proc(Proc&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Proc& operator=(Proc&& o) noexcept {
    if (this != &o) {
      reset();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;
  ~Proc() { reset(); }

  bool valid() const { return static_cast<bool>(h_); }

  // Releases ownership of the handle (used by Simulation::spawn, which marks
  // the coroutine detached so the frame self-destroys at completion).
  Handle release() { return std::exchange(h_, nullptr); }

  struct Awaiter {
    Handle h;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      h.promise().continuation = parent;
      return h;  // start the child now
    }
    T await_resume() {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
      if constexpr (!std::is_void_v<T>) return std::move(*h.promise().value);
    }
  };

  // Awaiting a Proc consumes it; the wrapper keeps ownership so the frame is
  // destroyed when the (temporary) Proc goes out of scope in the caller.
  Awaiter operator co_await() & { return Awaiter{h_}; }
  Awaiter operator co_await() && { return Awaiter{h_}; }

 private:
  void reset() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_;
};

namespace detail {

template <typename T>
Proc<T> Promise<T>::get_return_object() {
  return Proc<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Proc<void> Promise<void>::get_return_object() {
  return Proc<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace dcuda::sim
