#include "sim/proc.h"

#include <mutex>
#include <new>
#include <vector>

namespace dcuda::sim {

namespace detail {
namespace {

// Every thread's frame counters. Touched only when a thread makes its first
// frame and by frame_pool_stats(), never on the per-frame paths. Never
// destroyed: a thread may start or exit while static objects are being torn
// down.
struct Registry {
  std::mutex mu;
  std::vector<const FrameCounters*> threads;
};
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

FrameCounters& attach_frame_counters() {
  auto* k = new FrameCounters;
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    r.threads.push_back(k);
  }
  tls_frame_counters = k;
  return *k;
}

void* frame_alloc_slow(std::size_t n, FrameCounters& k) {
  bool fresh = true;
  void* p = n <= kPooledFrameBytes
                ? block_alloc_slow(n, Arena::kFrames, &fresh)
                : ::operator new(n);
  if (fresh) FrameCounters::bump(k.fresh);
  return p;
}

}  // namespace detail

FramePoolStats frame_pool_stats() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  FramePoolStats s;
  for (const detail::FrameCounters* k : r.threads) {
    s.served += k->served.load(std::memory_order_relaxed);
    s.fresh += k->fresh.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace dcuda::sim
