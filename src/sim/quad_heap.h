#pragma once

// Flat 4-ary min-heap (docs/PERF.md, "Flat 4-ary key heap").
//
// The one priority queue of the simulator: the engine's pending-event keys
// and SharedResource's active jobs both live in one. Elements are moved by
// value (memcpy on growth), so T must be trivially copyable; Less must be a
// strict weak order, and pop order is unique when it is total.
//
// The element array starts 64 - sizeof(T) bytes into a 64-byte-aligned
// block, so with 16-byte elements each child group {4i+1 .. 4i+4} occupies
// exactly one cache line. The block starts at `first_cap` elements and
// doubles when full; it is never shrunk.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

namespace dcuda::sim {

template <typename T, typename Less>
class QuadHeap {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= 64);

 public:
  explicit QuadHeap(std::size_t first_cap) : first_cap_(first_cap) {}
  ~QuadHeap() { dealloc(); }
  QuadHeap(const QuadHeap&) = delete;
  QuadHeap& operator=(const QuadHeap&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const T& top() const { return data_[0]; }
  // Element i in heap order (teardown walks every pending element).
  const T& operator[](std::size_t i) const { return data_[i]; }

  void push(T e) {
    if (size_ == cap_) grow();
    std::size_t i = size_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!Less{}(e, data_[parent])) break;
      data_[i] = data_[parent];
      i = parent;
    }
    data_[i] = e;
  }

  T pop() {
    const T top = data_[0];
    const T last = data_[--size_];
    const std::size_t n = size_;
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        // The sift is a chain of dependent cache misses in a deep heap;
        // prefetching all four grandchild groups (one line each) overlaps
        // the next level's fetch with this level's compare, whichever child
        // wins.
        const std::size_t gfirst = 4 * first + 1;
        if (gfirst < n) {
          __builtin_prefetch(&data_[gfirst]);
          __builtin_prefetch(&data_[gfirst + 4]);
          __builtin_prefetch(&data_[gfirst + 8]);
          __builtin_prefetch(&data_[gfirst + 12]);
        }
        std::size_t min_child = first;
        const std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; ++c) {
          if (Less{}(data_[c], data_[min_child])) min_child = c;
        }
        if (!Less{}(data_[min_child], last)) break;
        data_[i] = data_[min_child];
        i = min_child;
      }
      data_[i] = last;
    }
    return top;
  }

 private:
  static constexpr std::size_t kLead = 64 - sizeof(T);
  static_assert(kLead % alignof(T) == 0);

  void grow() {
    const std::size_t cap = cap_ > 0 ? cap_ * 2 : first_cap_;
    void* raw = ::operator new(kLead + cap * sizeof(T), std::align_val_t{64});
    T* data = reinterpret_cast<T*>(static_cast<unsigned char*>(raw) + kLead);
    if (size_ > 0) std::memcpy(data, data_, size_ * sizeof(T));
    dealloc();
    data_ = data;
    cap_ = cap;
  }

  void dealloc() {
    if (data_ != nullptr) {
      ::operator delete(reinterpret_cast<unsigned char*>(data_) - kLead,
                        std::align_val_t{64});
      data_ = nullptr;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::size_t first_cap_;
};

}  // namespace dcuda::sim
