#pragma once

// dCUDA device-side library — the public programming interface of the paper
// (Fig. 2), implemented as coroutines running inside simulated GPU blocks.
//
// Every CUDA block is an MPI-like rank. The library provides device-side
// remote memory access with target notification: window creation over a
// communicator, put/get with optional notification, notification matching
// with wildcards, window flushing, and barrier synchronization.
//
// Calling conventions follow the paper: all methods are called collectively
// by the threads of a block (here: once per block coroutine), and collective
// operations (init, win_create, win_free, barrier, finish) must be called by
// every rank of the communicator in the same order.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <type_traits>
#include <unordered_map>

#include "gpu/device.h"
#include "runtime/node_runtime.h"
#include "runtime/protocol.h"
#include "sim/proc.h"

namespace dcuda {

using rt::Comm;
inline constexpr Comm kCommWorld = Comm::kWorld;
inline constexpr Comm kCommDevice = Comm::kDevice;
inline constexpr int kAnySource = rt::kAnySource;
inline constexpr int kAnyTag = rt::kAnyTag;

// Kernel parameter injected by the launcher (the `param` argument of the
// paper's listing): everything the device library needs to reach its runtime.
struct KernelParam {
  rt::NodeRuntime* node = nullptr;
};

// Window handle. device_id is the rank-local identifier (translated to the
// global id by the block manager's table); global_id is filled in by the
// creation ack and used for direct shared-memory accesses.
struct Window {
  std::int32_t device_id = -1;
  std::int32_t global_id = -1;
  bool valid() const { return device_id >= 0; }
};

// Matches any window in wait/test_notifications.
inline constexpr std::int32_t kAnyWindow = -1;

// Per-rank context (the paper's dcuda_context): shared state for all
// library methods of one rank. A rank is either a device rank (block !=
// nullptr, running as a GPU block) or a host rank (§V extension: block ==
// nullptr, running on the host CPU but using the same RMA machinery).
class Context {
 public:
  gpu::BlockCtx* block = nullptr;  // null for host ranks
  rt::NodeRuntime* node = nullptr;
  rt::RankState* rs = nullptr;

  int world_rank = -1;
  int world_size = 0;
  int device_rank = -1;  // -1 for host ranks
  int device_size = 0;

  bool is_host_rank() const { return block == nullptr; }
  sim::Simulation& sim() { return node->simulation(); }

  // Charges compute/memory work to the rank's processor: the block's SM and
  // the device memory system, or the host CPU and host memory. Each returns
  // an awaitable (no coroutine frame) traced on the rank's lane.
  sim::SharedResource::Charge charge_compute(double flops);
  sim::SharedResource::Charge charge_compute_time(sim::Dur dedicated_time);
  sim::SharedResource::Charge charge_memory(double bytes);

  // The cluster's tracer (may be null; check enabled() before building
  // spans — see sim/trace.h).
  sim::Tracer* tracer() { return node->device().tracer(); }
  void trace(const char* activity, sim::Category category, sim::Time begin,
             sim::Time end, double bytes = 0.0);
  // Trace lane of a host rank: kHostRankLaneBase + node-local host index.
  int host_lane() const;
};

// -- Setup -------------------------------------------------------------------

// Initializes the context from the kernel parameter (dcuda_init).
sim::Proc<void> init(Context& ctx, const KernelParam& param, gpu::BlockCtx& blk);

// Initializes a host-rank context (§V extension). `host_index` is the
// node-local host rank in [0, host_ranks_per_node).
sim::Proc<void> init_host(Context& ctx, const KernelParam& param, int host_index);

// Terminates the rank: drains outstanding remote memory accesses and
// unregisters from the runtime (dcuda_finish).
sim::Proc<void> finish(Context& ctx);

// Rank/size queries (dcuda_comm_rank / dcuda_comm_size).
int comm_rank(const Context& ctx, Comm comm);
int comm_size(const Context& ctx, Comm comm);

// -- Windows -----------------------------------------------------------------

// Collectively creates a window over `comm`, registering [base, base+bytes)
// of this rank's device memory (dcuda_win_create).
sim::Proc<Window> win_create(Context& ctx, Comm comm, void* base, std::size_t bytes);

template <typename T>
sim::Proc<Window> win_create(Context& ctx, Comm comm, std::span<T> range) {
  return win_create(ctx, comm, range.data(), range.size_bytes());
}

// Collectively frees the window (dcuda_win_free).
sim::Proc<void> win_free(Context& ctx, Window& win);

// -- Remote memory access ------------------------------------------------------

// Copies `bytes` from `src` (origin device memory) into the target rank's
// window at byte offset `offset`; on completion enqueues a notification
// tagged `tag` at the target (dcuda_put_notify).
sim::Proc<void> put_notify(Context& ctx, Window win, int target_rank,
                           std::size_t offset, std::size_t bytes, const void* src,
                           int tag);

// Same, without notification (dcuda_put).
sim::Proc<void> put(Context& ctx, Window win, int target_rank, std::size_t offset,
                    std::size_t bytes, const void* src);

// Reads `bytes` from the target rank's window at `offset` into `dst`; on
// completion enqueues a notification at the *origin* (dcuda_get_notify).
sim::Proc<void> get_notify(Context& ctx, Window win, int target_rank,
                           std::size_t offset, std::size_t bytes, void* dst, int tag);

sim::Proc<void> get(Context& ctx, Window win, int target_rank, std::size_t offset,
                    std::size_t bytes, void* dst);

// -- Typed span overloads ----------------------------------------------------
//
// Element-unit variants mirroring win_create(span): offsets count Ts, the
// span supplies pointer and length together. Spans never convert implicitly
// from raw pointers, so — unlike typed-pointer overloads, which would
// silently capture pointers passed to the byte-unit API and re-scale their
// offsets by sizeof(T) — these cannot be picked by accident. A deduced
// std::span<T> parameter also binds std::span<const T> arguments (T deduces
// as const T), so one overload covers both for the read-side calls.

template <typename T>
sim::Proc<void> put_notify(Context& ctx, Window win, int target_rank,
                           std::size_t elem_offset, std::span<T> src, int tag) {
  return put_notify(ctx, win, target_rank, elem_offset * sizeof(T),
                    src.size_bytes(), static_cast<const void*>(src.data()), tag);
}

template <typename T>
sim::Proc<void> put(Context& ctx, Window win, int target_rank,
                    std::size_t elem_offset, std::span<T> src) {
  return put(ctx, win, target_rank, elem_offset * sizeof(T), src.size_bytes(),
             static_cast<const void*>(src.data()));
}

template <typename T>
sim::Proc<void> get_notify(Context& ctx, Window win, int target_rank,
                           std::size_t elem_offset, std::span<T> dst, int tag) {
  static_assert(!std::is_const_v<T>, "get_notify writes into dst");
  return get_notify(ctx, win, target_rank, elem_offset * sizeof(T),
                    dst.size_bytes(), static_cast<void*>(dst.data()), tag);
}

template <typename T>
sim::Proc<void> get(Context& ctx, Window win, int target_rank,
                    std::size_t elem_offset, std::span<T> dst) {
  static_assert(!std::is_const_v<T>, "get writes into dst");
  return get(ctx, win, target_rank, elem_offset * sizeof(T), dst.size_bytes(),
             static_cast<void*>(dst.data()));
}

// Waits until all remote memory accesses issued by this rank completed
// (covers every window of the rank).
sim::Proc<void> flush(Context& ctx);

// The paper's window flush: waits until all of this rank's pending remote
// memory accesses *on this window* are done (dcuda_win_flush).
sim::Proc<void> win_flush(Context& ctx, Window win);

// -- Notifications -------------------------------------------------------------

// Blocks until `count` notifications matching (win, source, tag) arrived and
// removes them from the queue. Wildcards: kAnyWindow / kAnySource / kAnyTag.
// Matching is in order of arrival; mismatched notifications are kept
// (queue compression, §III-C).
sim::Proc<void> wait_notifications(Context& ctx, std::int32_t win_filter, int source,
                                   int tag, int count);
inline sim::Proc<void> wait_notifications(Context& ctx, Window win, int source,
                                          int tag, int count) {
  return wait_notifications(ctx, win.device_id, source, tag, count);
}

// Nonblocking variant: consumes up to `count` matches, returns how many.
sim::Proc<int> test_notifications(Context& ctx, std::int32_t win_filter, int source,
                                  int tag, int count);
inline sim::Proc<int> test_notifications(Context& ctx, Window win, int source,
                                         int tag, int count) {
  return test_notifications(ctx, win.device_id, source, tag, count);
}

// -- Collectives ----------------------------------------------------------------

// Globally synchronizes all ranks of the communicator (dcuda_barrier).
sim::Proc<void> barrier(Context& ctx, Comm comm);

// -- Extensions (paper §V) -------------------------------------------------------

// Rectangular put: copies `rows` rows of `row_bytes` each, with strides in
// bytes between consecutive rows on both sides (multi-dimensional storage).
sim::Proc<void> put_2d_notify(Context& ctx, Window win, int target_rank,
                              std::size_t offset, std::size_t row_bytes,
                              std::size_t rows, std::size_t target_stride,
                              const void* src, std::size_t src_stride, int tag);

// Typed span variant: offsets, row length, and strides all count Ts; `src`
// must cover the last row ((rows-1) * src_stride + row_elems elements).
template <typename T>
sim::Proc<void> put_2d_notify(Context& ctx, Window win, int target_rank,
                              std::size_t elem_offset, std::size_t row_elems,
                              std::size_t rows, std::size_t target_stride,
                              std::span<T> src, std::size_t src_stride, int tag) {
  assert(rows == 0 || (rows - 1) * src_stride + row_elems <= src.size());
  return put_2d_notify(ctx, win, target_rank, elem_offset * sizeof(T),
                       row_elems * sizeof(T), rows, target_stride * sizeof(T),
                       static_cast<const void*>(src.data()),
                       src_stride * sizeof(T), tag);
}

// Shared-memory multicast: performs the data transfer once and notifies
// every rank of the target device registered on the window.
sim::Proc<void> put_notify_all(Context& ctx, Window win, int target_device_rank,
                               std::size_t offset, std::size_t bytes, const void* src,
                               int tag);

// Nonblocking broadcast over `comm`: the root's buffer is distributed along a
// binary tree of notified puts; completion is signalled by a notification on
// `win` with tag `tag` at every non-root rank.
sim::Proc<void> bcast_notify(Context& ctx, Window win, Comm comm, int root,
                             std::size_t offset, std::size_t bytes, void* buf, int tag);

// -- Debugging -------------------------------------------------------------------

// Prints via the device->host logging queue (visible in NodeRuntime::log_lines).
sim::Proc<void> log(Context& ctx, const char* text, std::int64_t value);

}  // namespace dcuda
