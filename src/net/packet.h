#pragma once

// Fabric packets (docs/PERF.md, "Message path").
//
// A packet is a fixed-format descriptor: the wire envelope the fabric reads
// (addresses, modeled wire size, sequence stamps), a fixed header the
// receiver interprets (the MPI wire descriptor), and one payload byte
// buffer. All of it lives
// in pooled blocks (sim/block_pool.h) behind a move-only handle, so a packet
// moves through the send lane, the topology hops, the rail mux and the
// mailbox as one pointer, and creating and dropping one allocates nothing
// once the pool is warm.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

namespace dcuda::net {

// What the fabric reads: set by the sender, except the stamps.
struct Envelope {
  int src = -1;
  int dst = -1;
  double bytes = 0.0;  // modeled wire size (not the payload buffer's size)
  // The rail the packet was striped onto, its per-(src, dst) mux sequence
  // (the resequencing key at the receiving rail mux), and its
  // reliable-delivery sequence per (src, dst, rail) connection while fault
  // injection is armed (0 on the reliable path). Stamped by Fabric::send.
  int rail = 0;
  std::uint64_t mux_seq = 0;
  std::uint64_t seq = 0;
};

class Packet {
 public:
  static constexpr std::size_t kHeaderBytes = 48;

  Packet() = default;  // empty handle
  // A packet from `src` to `dst` of `bytes` modeled wire bytes, with a
  // zeroed header and a `data_bytes`-byte payload buffer (uninitialized; the
  // sender fills it).
  Packet(int src, int dst, double bytes, std::size_t data_bytes = 0);
  Packet(Packet&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  Packet& operator=(Packet&& o) noexcept {
    if (this != &o) {
      release();
      b_ = std::exchange(o.b_, nullptr);
    }
    return *this;
  }
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;
  ~Packet() { release(); }

  explicit operator bool() const { return b_ != nullptr; }

  Envelope& env() { return b_->env; }
  const Envelope& env() const { return b_->env; }
  int src() const { return b_->env.src; }
  int dst() const { return b_->env.dst; }
  double bytes() const { return b_->env.bytes; }

  // The receiver-owned header: any trivially copyable type that fits.
  template <typename H>
  void set_header(const H& h) {
    static_assert(std::is_trivially_copyable_v<H> && sizeof(H) <= kHeaderBytes);
    std::memcpy(b_->header, &h, sizeof(H));
  }
  template <typename H>
  H header() const {
    static_assert(std::is_trivially_copyable_v<H> && sizeof(H) <= kHeaderBytes);
    H h;
    std::memcpy(&h, b_->header, sizeof(H));
    return h;
  }

  std::span<std::byte> data() { return {b_->data, b_->size}; }
  std::span<const std::byte> data() const { return {b_->data, b_->size}; }

  // A deep copy (go-back-N retention and injected duplicates).
  Packet clone() const;

 private:
  struct Block {
    Envelope env;
    alignas(8) std::byte header[kHeaderBytes];
    std::byte* data = nullptr;
    std::size_t size = 0;
  };
  void release() noexcept;

  Block* b_ = nullptr;
};

}  // namespace dcuda::net
