#include "net/packet.h"

#include <new>

#include "sim/block_pool.h"

namespace dcuda::net {

Packet::Packet(int src, int dst, double bytes, std::size_t data_bytes)
    : b_(::new (sim::block_alloc(sizeof(Block))) Block) {
  b_->env.src = src;
  b_->env.dst = dst;
  b_->env.bytes = bytes;
  std::memset(b_->header, 0, kHeaderBytes);
  if (data_bytes > 0) {
    b_->data = static_cast<std::byte*>(sim::block_alloc(data_bytes));
    b_->size = data_bytes;
  }
}

void Packet::release() noexcept {
  if (b_ == nullptr) return;
  if (b_->data != nullptr) sim::block_free(b_->data, b_->size);
  static_assert(std::is_trivially_destructible_v<Block>);
  sim::block_free(b_, sizeof(Block));
  b_ = nullptr;
}

Packet Packet::clone() const {
  Packet p(src(), dst(), bytes(), b_->size);
  p.b_->env = b_->env;
  std::memcpy(p.b_->header, b_->header, kHeaderBytes);
  if (b_->size > 0) std::memcpy(p.b_->data, b_->data, b_->size);
  return p;
}

}  // namespace dcuda::net
