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
// Frames come from a per-thread pool (docs/PERF.md, "Coroutine frames"):
// free lists in 64-byte size classes, so once a thread's lists are warm a
// Proc call allocates nothing. Frames above the largest class use the global
// heap directly. Each list is capped (a thread that only frees cannot grow
// its cache without bound) and a thread's cached frames are released when it
// exits. The engine maps shards to threads statically, so a shard's frames
// are allocated and freed on one thread; a frame freed on another thread
// just migrates to that thread's lists. Under AddressSanitizer cached frames
// stay poisoned, so a use after destroy is still reported.

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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

inline constexpr std::size_t kFrameClassBytes = 64;
inline constexpr std::size_t kFrameClasses = 16;  // pooled frames <= 1 KiB
inline constexpr std::uint32_t kFrameListCap = 8192;

// A cached frame is off limits to everything but the pool (AddressSanitizer
// reports any other access); no-ops in other builds.
inline void poison_frame(void* p, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}
inline void unpoison_frame(void* p, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

// One thread's free lists. Trivially destructible, so it stays readable
// while the thread exits. The counters are written only by the owning
// thread and read by frame_pool_stats() from any thread; they are
// statistics, so relaxed atomics suffice (plain loads and stores on x86).
struct FrameLists {
  enum State : std::uint8_t { kUnattached, kLive, kRetired };
  void* head[kFrameClasses] = {};
  std::uint32_t count[kFrameClasses] = {};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> fresh{0};
  State state = kUnattached;

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  // The link to the next cached frame lives in the frame's first word.
  void push(std::size_t c, void* p) {
    *static_cast<void**>(p) = head[c];
    head[c] = p;
    ++count[c];
    poison_frame(p, (c + 1) * kFrameClassBytes);
  }
  void* pop(std::size_t c) {
    void* p = head[c];
    unpoison_frame(p, (c + 1) * kFrameClassBytes);
    head[c] = *static_cast<void**>(p);
    --count[c];
    return p;
  }
};
inline constinit thread_local FrameLists tls_frames;

// Slow paths (proc.cc): first use on a thread, empty or full lists,
// oversized frames, and frames touched while the thread exits.
void* frame_alloc_slow(std::size_t n);
void frame_free_slow(void* p, std::size_t n) noexcept;

struct PromiseBase {
  static void* operator new(std::size_t n) {
    FrameLists& f = tls_frames;
    const std::size_t c = (n - 1) / kFrameClassBytes;
    if (c < kFrameClasses && f.head[c] != nullptr) [[likely]] {
      FrameLists::bump(f.served);
      return f.pop(c);
    }
    return frame_alloc_slow(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    FrameLists& f = tls_frames;
    const std::size_t c = (n - 1) / kFrameClassBytes;
    if (c < kFrameClasses && f.state == FrameLists::kLive &&
        f.count[c] < kFrameListCap) [[likely]] {
      f.push(c, p);
      return;
    }
    frame_free_slow(p, n);
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
