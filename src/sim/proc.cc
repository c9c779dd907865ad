#include "sim/proc.h"

#include <mutex>
#include <new>
#include <vector>

namespace dcuda::sim {

namespace detail {
namespace {

// Threads whose lists are attached, plus the counters of threads that have
// exited. Touched only when a thread attaches or exits and by
// frame_pool_stats(), never on the per-frame paths.
struct Registry {
  std::mutex mu;
  std::vector<FrameLists*> threads;
  FramePoolStats retired;
};

// Bytes actually allocated for a frame of `n` bytes: its class size, so any
// frame of the class can reuse it, or `n` itself above the largest class.
std::size_t frame_alloc_bytes(std::size_t n) {
  const std::size_t c = (n - 1) / kFrameClassBytes;
  return c < kFrameClasses ? (c + 1) * kFrameClassBytes : n;
}

// Never destroyed: a thread may attach or exit while static objects are
// being torn down.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

// Releases the calling thread's cached frames when it exits. After that the
// thread's frames come from and go to the global heap.
struct Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    FrameLists& f = tls_frames;
    for (std::size_t c = 0; c < kFrameClasses; ++c) {
      while (f.head[c] != nullptr) {
        ::operator delete(f.pop(c), (c + 1) * kFrameClassBytes);
      }
    }
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.retired.served += f.served.load(std::memory_order_relaxed);
    r.retired.fresh += f.fresh.load(std::memory_order_relaxed);
    std::erase(r.threads, &f);
    f.state = FrameLists::kRetired;
  }
};

void attach(FrameLists& f) {
  static thread_local Reaper reaper;
  (void)reaper;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.threads.push_back(&f);
  f.state = FrameLists::kLive;
}

}  // namespace

void* frame_alloc_slow(std::size_t n) {
  FrameLists& f = tls_frames;
  if (f.state == FrameLists::kUnattached) attach(f);
  FrameLists::bump(f.served);
  FrameLists::bump(f.fresh);
  return ::operator new(frame_alloc_bytes(n));
}

void frame_free_slow(void* p, std::size_t n) noexcept {
  FrameLists& f = tls_frames;
  const std::size_t c = (n - 1) / kFrameClassBytes;
  if (c < kFrameClasses && f.state == FrameLists::kUnattached) {
    attach(f);
    f.push(c, p);
    return;
  }
  ::operator delete(p, frame_alloc_bytes(n));
}

}  // namespace detail

FramePoolStats frame_pool_stats() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  FramePoolStats s = r.retired;
  for (const detail::FrameLists* f : r.threads) {
    s.served += f->served.load(std::memory_order_relaxed);
    s.fresh += f->fresh.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace dcuda::sim
