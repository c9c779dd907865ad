#include "sim/block_pool.h"

#include <mutex>
#include <new>

namespace dcuda::sim::detail {

namespace {

// Bytes actually allocated for a block of `n` bytes: its class size, so any
// block of the class can reuse it, or `n` itself above the largest class.
std::size_t block_alloc_bytes(std::size_t n) {
  const std::size_t c = block_class(n);
  return c < kBlockClasses ? block_class_bytes(c) : n;
}

// Word `i` of a cached (poisoned) block.
void* load_word(void* p, int i) {
  void** w = static_cast<void**>(p) + i;
  unpoison_block(w, sizeof(void*));
  void* v = *w;
  poison_block(w, sizeof(void*));
  return v;
}
void store_word(void* p, int i, void* v) {
  void** w = static_cast<void**>(p) + i;
  unpoison_block(w, sizeof(void*));
  *w = v;
  poison_block(w, sizeof(void*));
}

void free_chain(void* p, std::size_t c) {
  while (p != nullptr) {
    void* next = load_word(p, 0);
    unpoison_block(p, block_class_bytes(c));
    ::operator delete(p, block_class_bytes(c));
    p = next;
  }
}

// Shared per-arena, per-class stock of full batches. A batch is a chain of
// block_batch(c) cached blocks linked through their first words, exactly as
// on a thread's list; batches stack through the second word of their first
// block. Never destroyed: threads may exit during static destruction.
struct Depot {
  std::mutex mu;
  void* batches = nullptr;
  std::size_t blocks = 0;
};
constexpr std::size_t kDepots = kArenas * kBlockClasses;

void drain_depots();
Depot* depots() {
  static Depot* d = [] {
    // Drains the depots at exit, in the order a std::atexit registration
    // made here would run.
    static struct Drain {
      ~Drain() { drain_depots(); }
    } drain;
    return new Depot[kDepots];
  }();
  return d;
}
Depot& depot(Arena a, std::size_t c) {
  return depots()[static_cast<std::size_t>(a) * kBlockClasses + c];
}

// Frees every depot's blocks at exit, as the thread reaper does for a
// thread's lists. The links between cached blocks sit in poisoned memory,
// which LeakSanitizer does not scan, so blocks still cached when its exit
// check runs would be reported as leaks. The depots stay usable.
void drain_depots() {
  for (std::size_t i = 0; i < kDepots; ++i) {
    Depot& d = depots()[i];
    std::lock_guard<std::mutex> lk(d.mu);
    while (d.batches != nullptr) {
      void* first = d.batches;
      d.batches = load_word(first, 1);
      free_chain(first, i % kBlockClasses);
    }
    d.blocks = 0;
  }
}

// Moves one batch from the head of the thread's list to the depot (or to
// the heap once the depot holds kBlockCacheBytes of the class).
void spill(BlockLists& f, Arena a, std::size_t c) {
  const std::uint32_t n = block_batch(c);
  void* first = f.head[c];
  void* last = first;
  for (std::uint32_t i = 1; i < n; ++i) last = load_word(last, 0);
  f.head[c] = load_word(last, 0);
  f.count[c] -= n;
  store_word(last, 0, nullptr);
  Depot& d = depot(a, c);
  {
    std::lock_guard<std::mutex> lk(d.mu);
    if ((d.blocks + n) * block_class_bytes(c) <= kBlockCacheBytes ||
        d.blocks < 2 * n) {
      store_word(first, 1, d.batches);
      d.batches = first;
      d.blocks += n;
      return;
    }
  }
  free_chain(first, c);
}

// Refills an empty thread list with one batch from the depot; false if the
// depot has none.
bool refill(BlockLists& f, Arena a, std::size_t c) {
  Depot& d = depot(a, c);
  std::lock_guard<std::mutex> lk(d.mu);
  if (d.batches == nullptr) return false;
  void* first = d.batches;
  d.batches = load_word(first, 1);
  d.blocks -= block_batch(c);
  f.head[c] = first;
  f.count[c] = block_batch(c);
  return true;
}

// Releases the calling thread's cached blocks, in every arena, when it
// exits. After that the thread's blocks come from and go to the global heap.
struct Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    for (BlockLists& f : tls_blocks) {
      for (std::size_t c = 0; c < kBlockClasses; ++c) {
        free_chain(f.head[c], c);
        f.head[c] = nullptr;
        f.count[c] = 0;
      }
      f.state = BlockLists::kRetired;
    }
  }
};

void attach(BlockLists& f) {
  static thread_local Reaper reaper;
  (void)reaper;
  f.state = BlockLists::kLive;
}

}  // namespace

void* block_alloc_slow(std::size_t n, Arena a, bool* fresh) {
  BlockLists& f = tls_blocks[static_cast<std::size_t>(a)];
  const std::size_t c = block_class(n);
  if (fresh != nullptr) *fresh = false;
  if (c < kBlockClasses && f.state != BlockLists::kRetired) {
    if (f.state == BlockLists::kUnattached) attach(f);
    if (refill(f, a, c)) return f.pop(c);
  }
  if (fresh != nullptr) *fresh = true;
  return ::operator new(block_alloc_bytes(n));
}

void block_free_slow(void* p, std::size_t n, Arena a) noexcept {
  BlockLists& f = tls_blocks[static_cast<std::size_t>(a)];
  const std::size_t c = block_class(n);
  if (c < kBlockClasses && f.state != BlockLists::kRetired) {
    if (f.state == BlockLists::kUnattached) attach(f);
    if (f.count[c] >= 2 * block_batch(c)) spill(f, a, c);
    f.push(c, p);
    return;
  }
  ::operator delete(p, block_alloc_bytes(n));
}

}  // namespace dcuda::sim::detail
