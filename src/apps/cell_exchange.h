#pragma once

// Cell-list exchange core of the particle apps: the paper's 2-D chain
// (particles.h, Fig. 9) and the 3-D DPD grid (dpd3d.h). Both cut the domain
// into a grid of cells, one per rank, and iterate halo exchange, forces,
// sort-out, migration and arrival integration. This file holds what does
// not depend on the physics: the 27-direction Grid (after the
// Microfluidics-CC HaloExchanger; a chain is the N x 1 x 1 grid), the
// per-device slot Store, both variants' exchanges and the arrival loop.
// Physics kernels, cost charges and record layouts stay in the apps.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "sim/proc.h"

namespace dcuda::apps::cells {

// 27-direction index space: dir = (dx+1) + 3*(dy+1) + 9*(dz+1) with each
// offset in {-1, 0, +1}. kSelf (13) is the zero offset; opposite(d) mirrors
// all three axes.
inline constexpr int kDirs = 27;
inline constexpr int kSelf = 13;
inline constexpr int opposite(int dir) { return kDirs - 1 - dir; }
inline constexpr std::array<int, 3> dir_offset(int dir) {
  return {dir % 3 - 1, (dir / 3) % 3 - 1, dir / 9 - 1};
}

// Rank grid geometry: dimensions, cell <-> rank mapping (global cell ==
// global rank), the dir2rank table and the compacted active list.
struct Grid {
  int gx = 0, gy = 0, gz = 0;
  int cells() const { return gx * gy * gz; }
  std::array<int, 3> coords(int cell) const {
    return {cell / (gy * gz), (cell / gz) % gy, cell % gz};
  }
  int cell_at(int cx, int cy, int cz) const { return (cx * gy + cy) * gz + cz; }
  // Global cell (== global rank) of the neighbor in direction `dir`, or -1
  // outside the non-periodic domain.
  int dir2cell(int cell, int dir) const;
  // dir2rank[27] table for one cell: dir2cell for every direction, kSelf
  // mapped to the cell itself.
  std::array<int, kDirs> dir2rank(int cell) const;
  // Compacted active-neighbour directions (kSelf and out-of-domain
  // excluded), ascending.
  std::vector<int> active_dirs(int cell) const;
  // Per-cell slot layout: the directions some cell of this grid can reach
  // (no offset along an axis of extent 1), ascending. slots() is 2 for an
  // N x 1 x 1 chain and 26 when every extent is at least 2; slot(dir) is the
  // direction's index in that order, or -1 if no cell can reach it.
  int slots() const;
  int slot(int dir) const;
};

// Throws dcuda::ConfigError unless every rank owns exactly one cell.
void require_cell_per_rank(int cells_per_node, int ranks_per_device);

// Blocks of `cap` records of `width` doubles in parallel field arrays, their
// record counters and the counters' host mirror (MPI-CUDA).
struct Slots {
  int cap = 0;
  int width = 1;
  std::vector<std::span<double>> field;
  std::span<std::int32_t> count;
  std::vector<std::int32_t> host;
  // MPI tag space of the messages landing here: counts use tags + sender
  // cell * kDirs + sender direction, payloads the same one space up.
  int tags = 0;

  double* at(std::size_t f, std::size_t block) const {
    return field[f].data() + block * static_cast<std::size_t>(cap) * width;
  }
  std::span<double> recs(std::size_t f, std::size_t block, std::int32_t n) const {
    return {at(f, block), static_cast<std::size_t>(n) * width};
  }
};

// Counters per cell: one per reachable direction in slot order, or one per
// direction of all 27. The layout fixes the byte size of the MPI-CUDA
// bookkeeping fetches.
enum class Counters { kCompact, kDense };

// Storage of node `node`'s `cells` local cells (global cell node * cells +
// r for local cell r): `fields` record arrays per cell; halo slots keep the
// first `halo_fields`, send slots `send_fields`, inbox and outbox slots all.
// A cell gets slots only for the directions its grid can reach. Device
// memory starts zeroed.
class Store {
 public:
  Store(gpu::Device& dev, const Grid& grid, int node, int cells, int cap,
        int width, int fields, int halo_fields, int send_fields,
        Counters counters);

  const Grid& grid() const { return grid_; }
  int node() const { return node_; }
  int cells() const { return cells_; }
  int global(int r) const { return node_ * cells_ + r; }
  // grid().active_dirs(global(r)) and grid().slot(d), tabulated.
  const std::vector<int>& active(int r) const {
    return active_[static_cast<std::size_t>(r)];
  }
  int slot(int d) const { return slot_[static_cast<std::size_t>(d)]; }
  // Record block and counter of slot (local cell r, direction d).
  std::size_t block(int r, int d) const;
  std::size_t counter(int r, int d) const;

  Slots cell;  // one block per local cell
  Slots halo, send, inbox, outbox;

 private:
  Grid grid_;
  int node_ = 0;
  int cells_ = 0;
  bool dense_ = false;
  std::vector<std::vector<int>> active_;
  std::array<int, kDirs> slot_{};
};

// The exchanges ship from `from`, either `cell` (the whole cell goes out in
// every direction) or a per-direction slot array, into the neighbour's slot
// for the opposite direction. `skip_empty` drops the payload messages of an
// empty block; the count always travels.

// dCUDA windows over one slot array: one per field, then the counters.
struct Windows {
  std::vector<Window> field;
  Window count;
};
sim::Proc<Windows> win_create(Context& ctx, Slots& s);
sim::Proc<void> win_free(Context& ctx, Windows& w);

// dCUDA exchange of local cell r's rank: per active direction one put per
// field of `to`, then the notified count put; then flush and wait for one
// count per active direction.
sim::Proc<void> fan_out(Context& ctx, const Store& s, int r, const Slots& from,
                        const Windows& to, int tag, bool skip_empty);

// D2H fetch of a slot array's counters into its host mirror.
sim::Proc<void> fetch(gpu::Device& dev, Slots& s);

// MPI-CUDA exchange of the (cell, direction) pairs whose neighbour lives on
// another node: counts (from from.host) first, then the payload sends and
// receives of every field of `to`. Received counts land in to.host and
// to.count.
sim::Proc<void> exchange_boundary(gpu::Device& dev, mpi::Endpoint& ep, Store& s,
                                  Slots& from, Slots& to, bool skip_empty);

// Device-local halo copy for local cell r: each same-device neighbour's
// block lands in r's slot of `to`. Returns the record counts, one per
// same-device direction in ascending order, and their sum.
struct Copied {
  std::array<std::int32_t, kDirs> n{};
  int size = 0;
  std::int64_t total = 0;
};
Copied copy_local(Store& s, int r, const Slots& from, Slots& to);

// Appends the arrivals of local cell r, directions ascending, and returns
// their record count. With `direct`, same-device neighbours' movers
// are read from their outbox slot (MPI-CUDA moves nothing within a device);
// other arrivals come from r's inbox slot, whose counter is then reset.
// Throws dcuda::ConfigError when the cell would overflow.
std::int32_t integrate(Store& s, int r, bool direct);

}  // namespace dcuda::apps::cells
