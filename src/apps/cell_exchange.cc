#include "apps/cell_exchange.h"

#include <cassert>
#include <cstring>
#include <string>

#include "sim/config.h"

namespace dcuda::apps::cells {

namespace {

constexpr int kTagSpace = 1 << 20;

Slots make_slots(gpu::Device& dev, int fields, std::size_t blocks, int cap,
                 int width, std::size_t counters) {
  Slots s;
  s.cap = cap;
  s.width = width;
  for (int f = 0; f < fields; ++f) {
    s.field.push_back(dev.alloc<double>(blocks * static_cast<std::size_t>(cap) * width));
  }
  if (fields > 0) {
    s.count = dev.alloc<std::int32_t>(counters);
    s.host.resize(counters);
  }
  return s;
}

// The block local cell r ships toward direction d, and its counter.
struct Block {
  std::size_t rec;
  std::size_t ctr;
};
Block source(const Store& s, const Slots& from, int r, int d) {
  if (&from == &s.cell) return {static_cast<std::size_t>(r), static_cast<std::size_t>(r)};
  return {s.block(r, d), s.counter(r, d)};
}

void append(Store& s, int r, const Slots& from, std::size_t block, std::int32_t n) {
  std::int32_t& count = s.cell.count[static_cast<std::size_t>(r)];
  if (count + n > s.cell.cap) {
    throw ConfigError("cell overflow: " + std::to_string(count + n) +
                      " records exceed the capacity of " +
                      std::to_string(s.cell.cap) + "; increase capacity_factor");
  }
  for (std::size_t f = 0; f < s.cell.field.size(); ++f) {
    std::memcpy(s.cell.at(f, static_cast<std::size_t>(r)) +
                    static_cast<std::size_t>(count) * s.cell.width,
                from.at(f, block),
                static_cast<std::size_t>(n) * s.cell.width * sizeof(double));
  }
  count += n;
}

}  // namespace

int Grid::dir2cell(int cell, int dir) const {
  const std::array<int, 3> c = coords(cell);
  const std::array<int, 3> o = dir_offset(dir);
  const int cx = c[0] + o[0], cy = c[1] + o[1], cz = c[2] + o[2];
  if (cx < 0 || cx >= gx || cy < 0 || cy >= gy || cz < 0 || cz >= gz) return -1;
  return cell_at(cx, cy, cz);
}

std::array<int, kDirs> Grid::dir2rank(int cell) const {
  std::array<int, kDirs> out;
  for (int d = 0; d < kDirs; ++d) {
    out[static_cast<std::size_t>(d)] = d == kSelf ? cell : dir2cell(cell, d);
  }
  return out;
}

std::vector<int> Grid::active_dirs(int cell) const {
  std::vector<int> out;
  for (int d = 0; d < kDirs; ++d) {
    if (d != kSelf && dir2cell(cell, d) >= 0) out.push_back(d);
  }
  return out;
}

// The reachable directions form a box of offsets: {-1, 0, 1} along every
// axis of extent >= 2, {0} along the others. slot() numbers that box in
// direction order and closes the gap kSelf leaves.
int Grid::slots() const {
  return (gx > 1 ? 3 : 1) * (gy > 1 ? 3 : 1) * (gz > 1 ? 3 : 1) - 1;
}

int Grid::slot(int dir) const {
  const std::array<int, 3> o = dir_offset(dir);
  const int ext[3] = {gx, gy, gz};
  int id = 0, self = 0, stride = 1;
  for (int a = 0; a < 3; ++a) {
    if (ext[a] > 1) {
      id += (o[static_cast<std::size_t>(a)] + 1) * stride;
      self += stride;
      stride *= 3;
    } else if (o[static_cast<std::size_t>(a)] != 0) {
      return -1;
    }
  }
  if (id == self) return -1;
  return id > self ? id - 1 : id;
}

void require_cell_per_rank(int cells_per_node, int ranks_per_device) {
  if (cells_per_node != ranks_per_device) {
    throw ConfigError("one cell per rank: cells_per_node (" +
                      std::to_string(cells_per_node) +
                      ") must equal ranks_per_device (" +
                      std::to_string(ranks_per_device) + ")");
  }
}

Store::Store(gpu::Device& dev, const Grid& grid, int node, int cells, int cap,
             int width, int fields, int halo_fields, int send_fields,
             Counters counters)
    : grid_(grid), node_(node), cells_(cells), dense_(counters == Counters::kDense) {
  for (int r = 0; r < cells; ++r) active_.push_back(grid.active_dirs(global(r)));
  for (int d = 0; d < kDirs; ++d) slot_[static_cast<std::size_t>(d)] = grid.slot(d);
  const auto n = static_cast<std::size_t>(cells);
  const std::size_t blocks = n * static_cast<std::size_t>(grid.slots());
  const std::size_t ctrs = dense_ ? n * kDirs : blocks;
  cell = make_slots(dev, fields, n, cap, width, n);
  halo = make_slots(dev, halo_fields, blocks, cap, width, ctrs);
  inbox = make_slots(dev, fields, blocks, cap, width, ctrs);
  send = make_slots(dev, send_fields, blocks, cap, width, ctrs);
  outbox = make_slots(dev, fields, blocks, cap, width, ctrs);
  // Cell counts stay far below kTagSpace / kDirs, so the spaces never collide.
  halo.tags = kTagSpace;
  inbox.tags = 3 * kTagSpace;
}

std::size_t Store::block(int r, int d) const {
  assert(slot(d) >= 0 && "direction out of the grid's reach");
  return static_cast<std::size_t>(r) * static_cast<std::size_t>(grid_.slots()) +
         static_cast<std::size_t>(slot(d));
}

std::size_t Store::counter(int r, int d) const {
  if (dense_) return static_cast<std::size_t>(r) * kDirs + static_cast<std::size_t>(d);
  return block(r, d);
}

sim::Proc<Windows> win_create(Context& ctx, Slots& s) {
  Windows w;
  for (std::span<double> f : s.field) {
    w.field.push_back(co_await dcuda::win_create(ctx, kCommWorld, f));
  }
  w.count = co_await dcuda::win_create(ctx, kCommWorld, s.count);
  co_return w;
}

sim::Proc<void> win_free(Context& ctx, Windows& w) {
  for (Window& f : w.field) co_await dcuda::win_free(ctx, f);
  co_await dcuda::win_free(ctx, w.count);
}

sim::Proc<void> fan_out(Context& ctx, const Store& s, int r, const Slots& from,
                        const Windows& to, int tag, bool skip_empty) {
  for (int d : s.active(r)) {
    const Block b = source(s, from, r, d);
    const std::int32_t n = from.count[b.ctr];
    const int t = s.grid().dir2cell(s.global(r), d);
    const int lt = t % s.cells();
    if (n > 0 || !skip_empty) {
      const std::size_t off = s.block(lt, opposite(d)) *
                              static_cast<std::size_t>(from.cap) * from.width;
      for (std::size_t f = 0; f < to.field.size(); ++f) {
        co_await put(ctx, to.field[f], t, off,
                     std::span<const double>(from.recs(f, b.rec, n)));
      }
    }
    co_await put_notify(ctx, to.count, t, s.counter(lt, opposite(d)),
                        std::span<const std::int32_t>(&from.count[b.ctr], 1), tag);
  }
  // The put sources change after this exchange; flush guarantees the
  // runtime has buffered them.
  co_await flush(ctx);
  co_await wait_notifications(ctx, to.count, kAnySource, tag,
                              static_cast<int>(s.active(r).size()));
}

sim::Proc<void> fetch(gpu::Device& dev, Slots& s) {
  co_await dev.dma_copy(gpu::mem_ref(std::span<std::int32_t>(s.host)), dev.ref(s.count));
}

sim::Proc<void> exchange_boundary(gpu::Device& dev, mpi::Endpoint& ep, Store& s,
                                  Slots& from, Slots& to, bool skip_empty) {
  const int cells = s.cells();
  // Every (local cell, direction) pair facing another node, in posting order.
  struct Pair {
    int r, d, peer, send_tag, recv_tag;
  };
  std::vector<Pair> pairs;
  for (int r = 0; r < cells; ++r) {
    const int gc = s.global(r);
    for (int d : s.active(r)) {
      const int t = s.grid().dir2cell(gc, d);
      if (t / cells != s.node()) {
        pairs.push_back({r, d, t / cells, gc * kDirs + d, t * kDirs + opposite(d)});
      }
    }
  }
  std::vector<mpi::Request> pend;
  for (const Pair& p : pairs) {
    const Block b = source(s, from, p.r, p.d);
    pend.push_back(ep.isend(p.peer, to.tags + p.send_tag,
                            gpu::mem_ref(&from.host[b.ctr], 1)));
    pend.push_back(ep.irecv(p.peer, to.tags + p.recv_tag,
                            gpu::mem_ref(&to.host[s.counter(p.r, p.d)], 1)));
  }
  co_await mpi::wait_all(std::move(pend));
  std::vector<mpi::Request> pend2;
  for (const Pair& p : pairs) {
    const Block b = source(s, from, p.r, p.d);
    const std::int32_t out = from.host[b.ctr];
    const std::int32_t in = to.host[s.counter(p.r, p.d)];
    if (out > 0 || !skip_empty) {
      for (std::size_t f = 0; f < to.field.size(); ++f) {
        pend2.push_back(ep.isend(p.peer, to.tags + kTagSpace + p.send_tag,
                                 dev.ref(from.recs(f, b.rec, out))));
      }
    }
    if (in > 0 || !skip_empty) {
      for (std::size_t f = 0; f < to.field.size(); ++f) {
        pend2.push_back(ep.irecv(p.peer, to.tags + kTagSpace + p.recv_tag,
                                 dev.ref(to.recs(f, s.block(p.r, p.d), in))));
      }
    }
    to.count[s.counter(p.r, p.d)] = in;
  }
  co_await mpi::wait_all(std::move(pend2));
}

Copied copy_local(Store& s, int r, const Slots& from, Slots& to) {
  Copied out;
  for (int d : s.active(r)) {
    const int t = s.grid().dir2cell(s.global(r), d);
    if (t / s.cells() != s.node()) continue;  // device edge: MPI filled it
    const Block b = source(s, from, t % s.cells(), opposite(d));
    const std::int32_t n = from.count[b.ctr];
    for (std::size_t f = 0; f < to.field.size(); ++f) {
      std::memcpy(to.at(f, s.block(r, d)), from.at(f, b.rec),
                  static_cast<std::size_t>(n) * to.width * sizeof(double));
    }
    to.count[s.counter(r, d)] = n;
    out.n[static_cast<std::size_t>(out.size++)] = n;
    out.total += n;
  }
  return out;
}

std::int32_t integrate(Store& s, int r, bool direct) {
  std::int32_t arrivals = 0;
  for (int d : s.active(r)) {
    const int t = s.grid().dir2cell(s.global(r), d);
    const bool local = direct && t / s.cells() == s.node();
    // A same-device mover sits in the neighbour's outbox slot toward r.
    const int owner = local ? t % s.cells() : r;
    const int dir = local ? opposite(d) : d;
    Slots& from = local ? s.outbox : s.inbox;
    std::int32_t& n = from.count[s.counter(owner, dir)];
    if (n > 0) append(s, r, from, s.block(owner, dir), n);
    arrivals += n;
    if (!local) n = 0;
  }
  return arrivals;
}

}  // namespace dcuda::apps::cells
