#include "mpi/mpi.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "sim/block_pool.h"

namespace dcuda::mpi {

// A request's state. A receive request doubles as its posting: the match
// pattern, the destination buffer and the rendezvous progress.
struct Request::State {
  explicit State(sim::Simulation& s) : trig(s) {}
  bool done = false;
  int src = -1;  // completion source/tag
  int tag = 0;
  sim::Trigger trig;
  int want_src = kAnySource;
  int want_tag = kAnyTag;
  gpu::MemRef buf;
  std::size_t received = 0;
  std::size_t expected = 0;
};

bool Request::done() const { return st_ && st_->done; }
int Request::source() const { return st_->src; }
int Request::tag() const { return st_->tag; }

sim::Proc<void> Request::wait() {
  auto st = st_;
  while (!st->done) co_await st->trig.wait();
}

sim::Proc<void> wait_all(std::vector<Request> reqs) {
  for (auto& r : reqs) co_await r.wait();
}

// Packet header of every MPI message; the payload bytes (eager data, a
// rendezvous fragment) travel in the packet's buffer.
struct Endpoint::Wire {
  enum Kind : std::int32_t { kEager, kRts, kCts, kFrag, kBarrier, kBarrierRelease };
  Kind kind = kEager;
  int src = -1;
  int tag = 0;
  std::uint64_t msg_id = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t offset = 0;
  bool last = true;
  bool staged = false;  // fragment travelled via host staging
};

struct Endpoint::CtsState {
  explicit CtsState(sim::Simulation& s) : trig(s) {}
  bool granted = false;
  sim::Trigger trig;
};

namespace {
constexpr double kEnvelopeBytes = 64.0;  // wire header per message

bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}
}  // namespace

Endpoint::Endpoint(sim::Simulation& s, net::Fabric& fabric, int rank,
                   std::span<const int> nodes, sim::Mailbox<net::Packet>& rx,
                   const sim::MpiConfig& cfg, gpu::Device* device)
    : sim_(s),
      fabric_(fabric),
      rank_(rank),
      nodes_(nodes),
      rx_(rx),
      cfg_(cfg),
      device_(device),
      barrier_release_(std::make_unique<sim::Trigger>(s)) {
  s.spawn(rx_loop(), "mpi-rx@" + std::to_string(phys(rank)), /*daemon=*/true);
}

Endpoint::StatePtr Endpoint::new_request() {
  return std::allocate_shared<Request::State>(
      sim::PoolAllocator<Request::State>{}, sim_);
}

net::Packet Endpoint::packet(int dst, const Wire& w, const std::byte* data,
                             std::size_t n, double wire_bytes) const {
  net::Packet p(phys(rank_), phys(dst), wire_bytes, n);
  p.set_header(w);
  if (n > 0) std::memcpy(p.data().data(), data, n);
  return p;
}

Request Endpoint::isend(int dst, int tag, gpu::MemRef buf) {
  StatePtr st = new_request();
  st->src = rank_;
  st->tag = tag;
  // A short fixed name, like the other per-message processes: it fits the
  // string's inline buffer, so the spawn copies it without allocating.
  sim_.spawn(send_body(dst, tag, buf, st), "mpi-send");
  return Request(st);
}

Request Endpoint::irecv(int src, int tag, gpu::MemRef buf) {
  StatePtr st = new_request();
  st->want_src = src;
  st->want_tag = tag;
  st->buf = buf;
  st->expected = buf.bytes;

  // Check the unexpected queue first (arrival order).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    const Wire w = it->header<Wire>();
    if (!matches(src, tag, w.src, w.tag)) continue;
    accept(*st, w);
    net::Packet p = std::move(*it);
    unexpected_.erase(it);
    if (w.kind == Wire::kEager) {
      sim_.spawn(complete_into(st, std::move(p)), "mpi-complete");
    } else {  // buffered RTS
      grant(st, w);
    }
    return Request(st);
  }
  postings_.push_back(st);
  return Request(st);
}

sim::Proc<void> Endpoint::send(int dst, int tag, gpu::MemRef buf) {
  Request r = isend(dst, tag, buf);
  co_await r.wait();
}

sim::Proc<void> Endpoint::recv(int src, int tag, gpu::MemRef buf) {
  Request r = irecv(src, tag, buf);
  co_await r.wait();
}

sim::Proc<void> Endpoint::send_body(int dst, int tag, gpu::MemRef buf,
                                    StatePtr st) {
  co_await sim_.delay(cfg_.call_overhead);
  const std::uint64_t id = next_msg_id_++;
  Wire w;
  w.src = rank_;
  w.tag = tag;
  w.msg_id = id;
  w.total_bytes = buf.bytes;

  if (dst == rank_) {
    // Self-send: loop straight back into the matching machinery.
    st->done = true;
    st->trig.notify_all();
    handle(packet(dst, w, buf.data, buf.bytes, 0.0));
    co_return;
  }

  if (buf.bytes <= cfg_.eager_limit) {
    if (buf.on_device()) ++direct_dev_;
    fabric_.send(packet(dst, w, buf.data, buf.bytes,
                        static_cast<double>(buf.bytes) + kEnvelopeBytes),
                 direct_rate_cap(buf));
    st->done = true;  // eager send buffers locally; sender may reuse buf
    st->trig.notify_all();
    co_return;
  }

  // Rendezvous: RTS, wait for CTS, then move the data.
  CtsState cts(sim_);
  awaiting_cts_.emplace_back(id, &cts);
  w.kind = Wire::kRts;
  fabric_.send(packet(dst, w, nullptr, 0, kEnvelopeBytes));
  while (!cts.granted) co_await cts.trig.wait();
  co_await send_data(dst, id, buf, st);
}

sim::Rate Endpoint::direct_rate_cap(const gpu::MemRef& buf) const {
  return buf.on_device() && device_ && device_->pcie()
             ? device_->pcie()->config().gpudirect_bandwidth
             : std::numeric_limits<sim::Rate>::infinity();
}

sim::Proc<void> Endpoint::send_data(int dst, std::uint64_t msg_id, gpu::MemRef buf,
                                    StatePtr st) {
  const bool stage = buf.on_device() && device_ && device_->pcie() &&
                     buf.bytes > cfg_.device_staging_threshold;
  Wire f;
  f.kind = Wire::kFrag;
  f.src = rank_;
  f.msg_id = msg_id;
  f.total_bytes = buf.bytes;
  if (stage) {
    ++staged_;
    // Pipelined host staging: chunkwise D2H DMA, each chunk entering the
    // wire as soon as it lands in host memory. The NIC serializes behind
    // the (faster) PCIe link, so the transfer runs at network rate.
    std::size_t off = 0;
    while (off < buf.bytes) {
      const std::size_t chunk = std::min(cfg_.staging_chunk, buf.bytes - off);
      co_await device_->pcie()->dma(pcie::Dir::kDeviceToHost,
                                    static_cast<double>(chunk));
      f.offset = off;
      f.last = off + chunk == buf.bytes;
      f.staged = true;
      fabric_.send(packet(dst, f, buf.data + off, chunk,
                          static_cast<double>(chunk) + kEnvelopeBytes));
      off += chunk;
    }
  } else {
    if (buf.on_device()) ++direct_dev_;
    fabric_.send(packet(dst, f, buf.data, buf.bytes,
                        static_cast<double>(buf.bytes) + kEnvelopeBytes),
                 direct_rate_cap(buf));
  }
  st->done = true;
  st->trig.notify_all();
}

sim::Proc<void> Endpoint::rx_loop() {
  for (;;) handle(co_await rx_.pop());
}

Endpoint::StatePtr Endpoint::match_posting(int src, int tag) {
  for (auto it = postings_.begin(); it != postings_.end(); ++it) {
    if (matches((*it)->want_src, (*it)->want_tag, src, tag)) {
      StatePtr r = std::move(*it);
      postings_.erase(it);
      return r;
    }
  }
  return nullptr;
}

void Endpoint::accept(Request::State& r, const Wire& w) {
  if (w.total_bytes > r.buf.bytes) {
    throw TruncationError(
        "mpi: message of " + std::to_string(w.total_bytes) + " bytes from rank " +
        std::to_string(w.src) + " (tag " + std::to_string(w.tag) +
        ") truncated into a " + std::to_string(r.buf.bytes) +
        "-byte receive buffer");
  }
  r.src = w.src;
  r.tag = w.tag;
  r.expected = w.total_bytes;
}

void Endpoint::grant(StatePtr r, const Wire& w) {
  inflight_.push_back(Inflight{w.src, w.msg_id, std::move(r)});
  Wire cts;
  cts.kind = Wire::kCts;
  cts.src = rank_;
  cts.msg_id = w.msg_id;
  fabric_.send(packet(w.src, cts, nullptr, 0, kEnvelopeBytes));
}

void Endpoint::handle(net::Packet p) {
  const Wire w = p.header<Wire>();
  switch (w.kind) {
    case Wire::kEager:
    case Wire::kRts: {
      StatePtr r = match_posting(w.src, w.tag);
      if (r == nullptr) {
        unexpected_.push_back(std::move(p));
      } else {
        accept(*r, w);
        if (w.kind == Wire::kEager) {
          sim_.spawn(complete_into(std::move(r), std::move(p)), "mpi-complete");
        } else {
          grant(std::move(r), w);
        }
      }
      break;
    }
    case Wire::kCts: {
      auto it = std::find_if(awaiting_cts_.begin(), awaiting_cts_.end(),
                             [&](const auto& e) { return e.first == w.msg_id; });
      if (it != awaiting_cts_.end()) {
        CtsState* cts = it->second;
        awaiting_cts_.erase(it);
        cts->granted = true;
        cts->trig.notify_all();
      }
      break;
    }
    case Wire::kFrag:
      deliver_fragment(std::move(p), w);
      break;
    case Wire::kBarrier: {
      assert(rank_ == 0);
      ++barrier_arrivals_;
      barrier_release_->notify_all();
      break;
    }
    case Wire::kBarrierRelease: {
      ++barrier_epoch_;
      barrier_release_->notify_all();
      break;
    }
  }
}

sim::Proc<void> Endpoint::complete_into(StatePtr r, net::Packet p) {
  co_await sim_.delay(cfg_.call_overhead);
  const auto data = p.data();
  if (!data.empty()) std::memcpy(r->buf.data, data.data(), data.size());
  r->done = true;
  r->trig.notify_all();
}

void Endpoint::deliver_fragment(net::Packet p, const Wire& w) {
  auto it = std::find_if(inflight_.begin(), inflight_.end(), [&](const Inflight& f) {
    return f.src == w.src && f.msg_id == w.msg_id;
  });
  assert(it != inflight_.end());  // CTS precedes fragments
  sim_.spawn(finish_fragment(it->recv, std::move(p)), "mpi-frag");
}

sim::Proc<void> Endpoint::finish_fragment(StatePtr r, net::Packet p) {
  const Wire w = p.header<Wire>();
  const auto data = p.data();
  // Staged fragments into device memory pay the target-side H2D DMA.
  if (w.staged && r->buf.on_device() && device_ && device_->pcie()) {
    co_await device_->pcie()->dma(pcie::Dir::kHostToDevice,
                                  static_cast<double>(data.size()));
  }
  if (!data.empty()) std::memcpy(r->buf.data + w.offset, data.data(), data.size());
  r->received += data.size();
  if (r->received >= r->expected) {
    std::erase_if(inflight_, [&](const Inflight& f) {
      return f.src == w.src && f.msg_id == w.msg_id;
    });
    r->done = true;
    r->trig.notify_all();
  }
}

sim::Proc<void> Endpoint::barrier() {
  co_await sim_.delay(cfg_.call_overhead);
  if (size() == 1) co_return;
  if (rank_ == 0) {
    target_arrivals_ += size() - 1;
    while (barrier_arrivals_ < target_arrivals_) co_await barrier_release_->wait();
    for (int r = 1; r < size(); ++r) {
      Wire rel;
      rel.kind = Wire::kBarrierRelease;
      rel.src = 0;
      fabric_.send(packet(r, rel, nullptr, 0, kEnvelopeBytes));
    }
  } else {
    Wire arr;
    arr.kind = Wire::kBarrier;
    arr.src = rank_;
    fabric_.send(packet(0, arr, nullptr, 0, kEnvelopeBytes));
    const std::uint64_t target = ++barrier_waits_;
    while (barrier_epoch_ < target) co_await barrier_release_->wait();
  }
}

World::World(sim::Simulation& s, net::Fabric& fabric, const sim::MpiConfig& cfg,
             const std::vector<gpu::Device*>& devices, std::vector<int> nodes,
             const std::vector<sim::Mailbox<net::Packet>*>& rx)
    : nodes_(std::move(nodes)) {
  const int n = static_cast<int>(nodes_.size());
  endpoints_.reserve(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    gpu::Device* dev =
        r < static_cast<int>(devices.size()) ? devices[static_cast<size_t>(r)] : nullptr;
    // Each endpoint (and its rx daemon) lives in its node's shard.
    sim::ShardGuard guard(s, s.shard_for(nodes_[static_cast<size_t>(r)]));
    endpoints_.push_back(std::make_unique<Endpoint>(
        s, fabric, r, nodes_, *rx[static_cast<size_t>(r)], cfg, dev));
  }
}

}  // namespace dcuda::mpi
