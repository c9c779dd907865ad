#pragma once

// Wire/queue protocol between the device-side library and the host runtime
// (Fig. 4): commands flow device→host through per-rank command queues, acks
// and notifications flow host→device, and meta information travels between
// event handlers over MPI (Fig. 5).

#include <cstddef>
#include <cstdint>

namespace dcuda::rt {

// Predefined communicators (§II-C): all ranks of the cluster, or all ranks
// of the local device.
enum class Comm : std::int32_t { kWorld = 0, kDevice = 1 };

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -2147483647;  // distinct from user tags

enum class CmdKind : std::int32_t {
  kWinCreate,
  kWinFree,
  kPut,
  kGet,
  kBarrier,
  kFinish,
};

// Fixed-size command queue entry (the paper bounds entries to the vector
// width; ours is a plain POD moved through the circular queue).
struct Command {
  CmdKind kind = CmdKind::kPut;
  Comm comm = Comm::kWorld;
  std::int32_t win_device_id = -1;  // origin-rank-local window id
  std::int32_t target_rank = -1;    // world rank
  std::uint64_t offset = 0;         // bytes into the target window
  std::uint64_t bytes = 0;
  std::byte* local_ptr = nullptr;   // origin-side data (device memory)
  std::int32_t tag = 0;
  std::uint64_t flush_id = 0;
  bool notify = true;
  // kWinCreate payload: registered local range.
  std::byte* win_base = nullptr;
  std::uint64_t win_bytes = 0;
  // Shared-memory put already executed on the device: the block manager only
  // loops the notification through the host (§III-A) and tracks flushing.
  bool local_already_copied = false;
};

enum class AckKind : std::int32_t {
  kWinCreated,
  kWinFreed,
  kBarrierDone,
  kFinished,
};

struct Ack {
  AckKind kind = AckKind::kWinCreated;
  std::int32_t win_global_id = -1;
  std::int32_t win_device_id = -1;
};

// Notification queue entry (§III-C: window id, source rank, tag — padded to
// a 32-byte entry matched by eight 4-byte-chunk threads in the paper).
struct Notification {
  std::int32_t win_device_id = -1;  // target-rank-local window id
  std::int32_t source = -1;         // world rank of the origin
  std::int32_t tag = 0;
};

// Device->host log entry (debug printing during kernel execution).
struct LogEntry {
  std::int32_t rank = -1;
  std::int64_t value = 0;
  char text[40] = {};
};

// Meta information for a notified remote memory access, sent origin event
// handler -> target event handler (step 2 of Fig. 5).
struct Meta {
  CmdKind kind = CmdKind::kPut;
  std::int32_t origin_rank = -1;
  std::int32_t target_rank = -1;
  std::int32_t win_global_id = -1;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::int32_t tag = 0;
  bool notify = true;
};

// MPI tag space used by the runtime.
inline constexpr int kMetaTag = 1 << 20;
inline constexpr int kPutDataTagBase = 1 << 21;  // + origin world rank
inline constexpr int kGetDataTagBase = 1 << 22;  // + origin world rank

}  // namespace dcuda::rt
