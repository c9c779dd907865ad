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

// -- Eager/aggregated small-put fast path (sim::RmaConfig) -------------------
//
// Remote notified puts at or below RmaConfig::eager_threshold skip the
// two-message meta + payload pipeline: the origin block manager copies the
// payload out of device memory, coalesces same-target-node puts, and ships
// one runtime-channel fabric packet per batch. The target event handler
// lands every payload and commits the batch's notifications in one sweep.
//
// Mixed sizes keep the §III-B non-overtaking guarantee through a
// rendezvous fence: while the fast path is on, every rendezvous-path put
// carries an implicit per-(origin rank, target node) sequence number the
// target reconstructs from per-rank meta arrival order (metas travel FIFO,
// so no wire field is needed), and every eager record stores in
// `rdv_before` how many such puts its origin rank had issued. The target
// processes no record before rendezvous payloads 1..rdv_before of that
// rank have landed. A notified rendezvous put additionally routes its
// notification through the eager stream as a zero-byte `rdv_notify`
// record fenced on its own sequence number, so all notifications of a
// connection travel one FIFO channel and none can overtake payload data
// parked in an aggregator or still crossing the wire.

// One put inside an aggregated packet. Header size on the wire is modeled
// as kEagerRecordWireBytes, NOT sizeof — the in-memory struct may grow
// without shifting golden timings.
struct EagerPutRecord {
  std::int32_t origin_rank = -1;    // world rank
  std::int32_t target_rank = -1;    // world rank
  std::int32_t win_global_id = -1;
  std::uint64_t offset = 0;         // bytes into the target window
  std::uint64_t bytes = 0;          // payload length inside the batch buffer
  std::int32_t tag = 0;
  bool notify = true;
  // Rendezvous fence: rendezvous-path puts the origin rank issued to this
  // target node before (and, for rdv_notify records, including) this one.
  std::uint64_t rdv_before = 0;
  // True for the zero-byte notification stand-in of a rendezvous put: the
  // payload travels on the meta+payload pipeline, only the notification
  // rides the eager stream.
  bool rdv_notify = false;
};

// Packet header of one aggregated flush (net::Packet). The packet's payload
// buffer holds the `records` EagerPutRecords, then the records' payload bytes
// concatenated in record order.
struct EagerBatchHeader {
  int origin_node = -1;
  std::uint32_t records = 0;
  std::uint64_t batch_seq = 0;  // per (origin node, target node), from 1
};

// Wire-size model of the eager path: per-packet envelope and per-record
// header (win id, offset, length, tag — the meta tuple, packed — plus the
// 8-byte rendezvous-fence sequence).
inline constexpr double kEagerEnvelopeBytes = 64.0;
inline constexpr double kEagerRecordWireBytes = 40.0;

}  // namespace dcuda::rt
