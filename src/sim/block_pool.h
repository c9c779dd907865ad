#pragma once

// Per-thread pool of power-of-two memory blocks (docs/PERF.md, "Message
// path" and "Coroutine frames"): coroutine frames (sim/proc.h), fabric
// packets and their payload bytes, MPI requests, spawn join states, waiter
// lists and the runtime's batch vectors.
//
// Per-thread free lists, one per size class (64 B .. 1 MiB), so once a
// thread's lists are warm an allocation is a pop. Frames keep an arena of
// their own (lists and depot), so frame_pool_stats() counts frames only.
// Nothing is allocated ahead of use — the pool only ever holds blocks that
// were live before; caches are capped, and a thread's cached blocks are
// released when it exits. Blocks above the largest class come from the
// global heap directly. Under AddressSanitizer cached blocks stay poisoned,
// so a use after free is still reported.
//
// Packets are born on the sending shard and die on the receiving one, so a
// one-way flow (get requests one way, data the other) moves blocks of a
// class steadily from one thread to another. A thread's list therefore
// holds at most two batches; beyond that it spills a batch into a shared
// per-class depot, and a thread whose list runs dry takes a batch from the
// depot before it touches the heap. One lock per batch, not per block.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dcuda::sim {

namespace detail {

// A cached block is off limits to everything but its pool (AddressSanitizer
// reports any other access); no-ops in other builds.
inline void poison_block(void* p, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}
inline void unpoison_block(void* p, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

inline constexpr unsigned kBlockMinShift = 6;  // smallest class: 64 B
inline constexpr std::size_t kBlockClasses = 15;  // largest class: 1 MiB
// Depot cap per class: 8 MiB of blocks (at least two batches).
inline constexpr std::size_t kBlockCacheBytes = std::size_t{8} << 20;

inline std::size_t block_class(std::size_t n) {
  return n <= (std::size_t{1} << kBlockMinShift)
             ? 0
             : static_cast<std::size_t>(std::bit_width(n - 1)) - kBlockMinShift;
}
inline constexpr std::size_t block_class_bytes(std::size_t c) {
  return std::size_t{1} << (c + kBlockMinShift);
}
// Blocks per depot batch: about 64 KiB worth, between 2 and 32.
inline constexpr std::uint32_t block_batch(std::size_t c) {
  const std::size_t n = (std::size_t{64} << 10) / block_class_bytes(c);
  return static_cast<std::uint32_t>(n < 2 ? 2 : n > 32 ? 32 : n);
}

// Which lists a block lives on: coroutine frames, or everything else.
enum class Arena : std::uint8_t { kGeneral = 0, kFrames = 1 };
inline constexpr std::size_t kArenas = 2;

// One thread's free lists in one arena; trivially destructible, so it stays
// readable while the thread exits.
struct BlockLists {
  enum State : std::uint8_t { kUnattached, kLive, kRetired };
  void* head[kBlockClasses] = {};
  std::uint32_t count[kBlockClasses] = {};
  State state = kUnattached;

  // The link to the next cached block lives in the block's first word.
  void push(std::size_t c, void* p) {
    *static_cast<void**>(p) = head[c];
    head[c] = p;
    ++count[c];
    poison_block(p, block_class_bytes(c));
  }
  void* pop(std::size_t c) {
    void* p = head[c];
    unpoison_block(p, block_class_bytes(c));
    head[c] = *static_cast<void**>(p);
    --count[c];
    return p;
  }
};
inline constinit thread_local BlockLists tls_blocks[kArenas];

// Slow paths (block_pool.cc): first use on a thread, empty or full lists
// (the depot exchange), oversized blocks, and blocks freed while the thread
// exits. `fresh`, when given, is set to whether the block came from the
// global heap.
void* block_alloc_slow(std::size_t n, Arena a, bool* fresh = nullptr);
void block_free_slow(void* p, std::size_t n, Arena a) noexcept;

// Fast path: the thread's most recently cached block of n's class, or null
// when its list is empty.
inline void* block_pop(std::size_t n, Arena a = Arena::kGeneral) {
  BlockLists& f = tls_blocks[static_cast<std::size_t>(a)];
  const std::size_t c = block_class(n);
  if (c < kBlockClasses && f.head[c] != nullptr) [[likely]] return f.pop(c);
  return nullptr;
}

}  // namespace detail

// A block of at least `n` bytes (n > 0), aligned for any scalar type.
inline void* block_alloc(std::size_t n,
                         detail::Arena a = detail::Arena::kGeneral) {
  if (void* p = detail::block_pop(n, a)) [[likely]] return p;
  return detail::block_alloc_slow(n, a);
}

// Returns a block from block_alloc(n, a); `n` must be the requested size.
inline void block_free(void* p, std::size_t n,
                       detail::Arena a = detail::Arena::kGeneral) noexcept {
  detail::BlockLists& f = detail::tls_blocks[static_cast<std::size_t>(a)];
  const std::size_t c = detail::block_class(n);
  if (c < detail::kBlockClasses && f.state == detail::BlockLists::kLive &&
      f.count[c] < 2 * detail::block_batch(c)) [[likely]] {
    f.push(c, p);
    return;
  }
  detail::block_free_slow(p, n, a);
}

// Standard allocator over the block pool: std::allocate_shared puts an
// object and its control block in one pooled block, and a PoolVector's
// storage comes from (and returns to) the pool.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(block_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { block_free(p, n * sizeof(T)); }
  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using PoolVector = std::vector<T, PoolAllocator<T>>;

}  // namespace dcuda::sim
