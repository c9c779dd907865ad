#include "dcuda/dcuda.h"

#include <cassert>
#include <cstring>

#include "sim/invariants.h"

namespace dcuda {

namespace {

// Device-side cost of assembling and issuing a command (meta tuple build,
// §III-B), charged to the rank's SM.
sim::SharedResource::Charge charge_issue(Context& ctx) {
  return ctx.charge_compute_time(ctx.node->config().runtime.device_issue_cost);
}

bool notification_matches(const rt::Notification& n, std::int32_t win_filter,
                          int source, int tag) {
  if (win_filter != kAnyWindow && n.win_device_id != win_filter) return false;
  if (source != kAnySource && n.source != source) return false;
  if (tag != kAnyTag && n.tag != tag) return false;
  return true;
}

// One match round (§III-C), shared by wait_notifications and
// test_notifications: drains the notification queue onto the on-device board
// (direct deliveries — device-local or NIC board writes — are already
// there), consumes up to `want` matches in arrival order (mismatches stay:
// queue compression) and charges the compute-heavy matcher's cost to the
// rank (§IV-B). Returns the number matched; `epoch`, if given, receives the
// board epoch from before the charge, so a waiter can tell whether anything
// bypassed the queue meanwhile.
sim::Proc<int> match_round(Context& ctx, std::int32_t win_filter, int source,
                           int tag, int want, std::uint64_t* epoch = nullptr) {
  rt::RankState& rs = *ctx.rs;
  while (auto n = rs.notif_q.try_dequeue()) rs.board.deposit(*n);
  int matched = 0;
  int scanned = 0;
  sim::InvariantObserver* obs = ctx.sim().invariant_observer();
  auto& pending = rs.board.entries();
  for (auto it = pending.begin(); it != pending.end() && matched < want;) {
    ++scanned;
    if (notification_matches(*it, win_filter, source, tag)) {
      if (obs != nullptr) obs->notification_matched();
      it = pending.erase(it);
      ++matched;
    } else {
      ++it;
    }
  }
  if (sim::Tracer* tr = ctx.tracer(); tr && tr->enabled()) {
    tr->bump("match_rounds");
    tr->bump("notifications_matched", matched);
    tr->bump("notifications_unmatched", scanned - matched);
  }
  if (epoch != nullptr) *epoch = rs.board.epoch();
  const sim::RuntimeConfig& rc = ctx.node->config().runtime;
  if (rc.charge_matching_cost) {
    co_await ctx.charge_compute_time(rc.match_round_cost +
                                     static_cast<double>(scanned) * rc.match_entry_cost);
  }
  co_return matched;
}

// Names an RMA issue span for the tracer.
const char* rma_activity(rt::CmdKind kind, bool notify) {
  if (kind == rt::CmdKind::kPut) return notify ? "put_notify" : "put";
  return notify ? "get_notify" : "get";
}

// Core RMA issue path shared by put/get (notify optional). The traced span
// covers device-side command assembly and queue submission — the wire and
// PCIe time shows up on the fabric/pcie lanes instead.
sim::Proc<void> issue_rma(Context& ctx, rt::CmdKind kind, Window win,
                          int target_rank, std::size_t offset, std::size_t bytes,
                          void* local_ptr, int tag, bool notify) {
  assert(win.valid() && "window not created");
  assert(target_rank >= 0 && target_rank < ctx.world_size);
  rt::NodeRuntime& node = *ctx.node;
  rt::RankState& rs = *ctx.rs;
  sim::Tracer* tr = ctx.tracer();
  const bool traced = tr != nullptr && tr->enabled();
  const sim::Time issue_begin = traced ? ctx.sim().now() : 0.0;
  const sim::Category cat =
      kind == rt::CmdKind::kPut ? sim::Category::kPut : sim::Category::kGet;
  const auto end_span = [&] {
    if (!traced) return;
    ctx.trace(rma_activity(kind, notify), cat, issue_begin, ctx.sim().now(),
              static_cast<double>(bytes));
    tr->bump(kind == rt::CmdKind::kPut ? "puts_issued" : "gets_issued");
    tr->bump("rma_bytes", static_cast<double>(bytes));
  };
  if (sim::InvariantObserver* obs = ctx.sim().invariant_observer(); obs != nullptr) {
    obs->window_accessed(win.global_id);
    if (notify) obs->notify_sent();
  }
  co_await charge_issue(ctx);

  const int rpn = node.ranks_per_node();
  const int target_node = target_rank / rpn;
  const bool shared_memory = target_node == node.node();

  rt::Command c;
  c.kind = kind;
  c.win_device_id = win.device_id;
  c.target_rank = target_rank;
  c.offset = offset;
  c.bytes = bytes;
  c.local_ptr = static_cast<std::byte*>(local_ptr);
  c.tag = tag;
  c.notify = notify;

  if (shared_memory) {
    // Direct device-side execution (§III-A): resolve the target window
    // registration from the device window table and copy locally. No copy if
    // source and target addresses coincide (overlapping windows).
    const int target_local = target_rank - node.node() * rpn;
    const rt::NodeRuntime::WinRankInfo* peer =
        node.window_peer(win.global_id, target_local);
    assert(peer != nullptr && "shared-memory window not registered");
    assert(offset + bytes <= peer->bytes && "window access out of bounds");
    std::byte* remote = peer->base + offset;
    std::byte* local = static_cast<std::byte*>(local_ptr);
    if (remote != local && bytes > 0) {
      if (kind == rt::CmdKind::kPut) {
        std::memcpy(remote, local, bytes);
      } else {
        std::memcpy(local, remote, bytes);
      }
      co_await ctx.charge_memory(2.0 * static_cast<double>(bytes));
    }
    // §II-D: redundant shared-memory operations are optimized out — the copy
    // (if any) completed synchronously, so without a notification there is
    // nothing left for the host to do.
    if (!notify) {
      end_span();
      co_return;
    }
    if (node.config().device_initiated()) {
      // Device-side delivery (kDeviceInitiated backend): the copy completed
      // synchronously above, so the notification deposits straight onto the
      // target's on-device board (a get's onto the origin's) — no host
      // loop-through and nothing left to flush.
      const bool put = kind == rt::CmdKind::kPut;
      if (put) {
        node.report_local_notified_put(rs.global_rank, target_rank,
                                       win.global_id, bytes, tag);
      }
      node.device_local_notify(
          put ? target_local : rs.local_rank,
          rt::Notification{put ? peer->win_device_id : win.device_id,
                           put ? rs.global_rank : target_rank, tag});
      end_span();
      co_return;
    }
    c.local_already_copied = true;
  }

  c.flush_id = ++rs.next_flush_id;
  ++rs.win_issued[static_cast<std::size_t>(win.device_id)];
  co_await rs.cmd_q.enqueue(c);
  if (traced) {
    tr->counter_add(ctx.sim().now(), node.phys_node(), "inflight_rma", 1.0);
  }
  end_span();
}

}  // namespace


// Host ranks charge the node's host CPU and memory, traced on a lane band of
// their own (kHostRankLaneBase + host index).
sim::SharedResource::Charge Context::charge_compute(double flops) {
  if (block != nullptr) return block->compute_flops(flops);
  return {&node->host_compute(), flops, tracer(), "compute", node->phys_node(),
          host_lane(), sim::Category::kCompute};
}

sim::SharedResource::Charge Context::charge_compute_time(sim::Dur dedicated_time) {
  if (block != nullptr) return block->compute(dedicated_time);
  const double rate = node->config().host.flops / node->config().host.threads_to_saturate;
  return charge_compute(dedicated_time * rate);
}

sim::SharedResource::Charge Context::charge_memory(double bytes) {
  if (block != nullptr) return block->mem_traffic(bytes);
  return {&node->host_memory(), bytes, tracer(), "memory", node->phys_node(),
          host_lane(), sim::Category::kMemory, bytes};
}

int Context::host_lane() const {
  return sim::kHostRankLaneBase + world_rank % node->ranks_per_node() -
         node->ranks_per_device();
}

void Context::trace(const char* activity, sim::Category category,
                    sim::Time begin, sim::Time end, double bytes) {
  if (block != nullptr) {
    block->trace(activity, category, begin, end, bytes);
    return;
  }
  if (sim::Tracer* t = tracer(); t && t->enabled()) {
    t->record(sim::TraceSpan{begin, end, node->phys_node(), host_lane(),
                             activity, category, bytes});
  }
}

sim::Proc<void> init_host(Context& ctx, const KernelParam& param, int host_index) {
  assert(param.node != nullptr);
  ctx.block = nullptr;
  ctx.node = param.node;
  const int rpd = ctx.node->ranks_per_device();
  assert(host_index >= 0 && host_index < ctx.node->host_ranks());
  ctx.device_rank = -1;
  ctx.device_size = rpd;
  const int local = rpd + host_index;
  ctx.world_rank = ctx.node->node() * ctx.node->ranks_per_node() + local;
  ctx.world_size = ctx.node->world_size();
  ctx.rs = &ctx.node->rank(local);
  co_await charge_issue(ctx);
}

sim::Proc<void> init(Context& ctx, const KernelParam& param, gpu::BlockCtx& blk) {
  assert(param.node != nullptr);
  ctx.block = &blk;
  ctx.node = param.node;
  const int rpd = ctx.node->ranks_per_device();
  assert(blk.grid_blocks() == rpd &&
         "dCUDA kernels launch exactly one block per rank; the grid must "
         "match the runtime's ranks_per_device");
  ctx.device_rank = blk.block_id();
  ctx.device_size = rpd;
  ctx.world_rank = ctx.node->node() * ctx.node->ranks_per_node() + ctx.device_rank;
  ctx.world_size = ctx.node->world_size();
  ctx.rs = &ctx.node->rank(ctx.device_rank);
  co_await charge_issue(ctx);
}

int comm_rank(const Context& ctx, Comm comm) {
  return comm == Comm::kWorld ? ctx.world_rank : ctx.device_rank;
}

int comm_size(const Context& ctx, Comm comm) {
  return comm == Comm::kWorld ? ctx.world_size : ctx.device_size;
}

sim::Proc<Window> win_create(Context& ctx, Comm comm, void* base, std::size_t bytes) {
  rt::RankState& rs = *ctx.rs;
  Window w;
  w.device_id = rs.next_win_device_id++;
  rs.win_issued.push_back(0);
  rs.win_completed.push_back(0);
  co_await charge_issue(ctx);

  rt::Command c;
  c.kind = rt::CmdKind::kWinCreate;
  c.comm = comm;
  c.win_device_id = w.device_id;
  c.win_base = static_cast<std::byte*>(base);
  c.win_bytes = bytes;
  co_await rs.cmd_q.enqueue(c);

  rt::Ack a = co_await rs.ack_q.dequeue();
  assert(a.kind == rt::AckKind::kWinCreated);
  assert(a.win_device_id == w.device_id);
  w.global_id = a.win_global_id;
  co_return w;
}

sim::Proc<void> win_free(Context& ctx, Window& win) {
  assert(win.valid());
  co_await charge_issue(ctx);
  rt::Command c;
  c.kind = rt::CmdKind::kWinFree;
  c.win_device_id = win.device_id;
  co_await ctx.rs->cmd_q.enqueue(c);
  rt::Ack a = co_await ctx.rs->ack_q.dequeue();
  assert(a.kind == rt::AckKind::kWinFreed);
  (void)a;
  win = Window{};
}

sim::Proc<void> put_notify(Context& ctx, Window win, int target_rank,
                           std::size_t offset, std::size_t bytes, const void* src,
                           int tag) {
  return issue_rma(ctx, rt::CmdKind::kPut, win, target_rank, offset, bytes,
                   const_cast<void*>(src), tag, /*notify=*/true);
}

sim::Proc<void> put(Context& ctx, Window win, int target_rank, std::size_t offset,
                    std::size_t bytes, const void* src) {
  return issue_rma(ctx, rt::CmdKind::kPut, win, target_rank, offset, bytes,
                   const_cast<void*>(src), 0, /*notify=*/false);
}

sim::Proc<void> get_notify(Context& ctx, Window win, int target_rank,
                           std::size_t offset, std::size_t bytes, void* dst, int tag) {
  return issue_rma(ctx, rt::CmdKind::kGet, win, target_rank, offset, bytes, dst,
                   tag, /*notify=*/true);
}

sim::Proc<void> get(Context& ctx, Window win, int target_rank, std::size_t offset,
                    std::size_t bytes, void* dst) {
  return issue_rma(ctx, rt::CmdKind::kGet, win, target_rank, offset, bytes, dst, 0,
                   /*notify=*/false);
}

sim::Proc<void> flush(Context& ctx) {
  rt::RankState& rs = *ctx.rs;
  const std::uint64_t target = rs.next_flush_id;
  while (rs.flush_done < target) co_await rs.flush_trig.wait();
}

sim::Proc<void> win_flush(Context& ctx, Window win) {
  assert(win.valid());
  rt::RankState& rs = *ctx.rs;
  const auto id = static_cast<std::size_t>(win.device_id);
  const std::uint64_t target = rs.win_issued[id];
  while (rs.win_completed[id] < target) co_await rs.flush_trig.wait();
}

sim::Proc<void> wait_notifications(Context& ctx, std::int32_t win_filter, int source,
                                   int tag, int count) {
  rt::RankState& rs = *ctx.rs;
  const sim::Time begin = ctx.sim().now();
  int matched = 0;
  while (matched < count) {
    std::uint64_t epoch = 0;
    matched += co_await match_round(ctx, win_filter, source, tag,
                                    count - matched, &epoch);
    // Re-check for arrivals during the matching round: queue commits or
    // direct board deposits (would be a lost wake-up otherwise).
    if (matched < count && rs.notif_q.empty() && rs.board.epoch() == epoch) {
      co_await rs.notif_q.nonempty_trigger().wait();
    }
  }
  ctx.trace("wait", sim::Category::kWait, begin, ctx.sim().now());
}

sim::Proc<int> test_notifications(Context& ctx, std::int32_t win_filter, int source,
                                  int tag, int count) {
  return match_round(ctx, win_filter, source, tag, count);
}

sim::Proc<void> barrier(Context& ctx, Comm comm) {
  const sim::Time begin = ctx.sim().now();
  // Barrier domains for the oracle: the world communicator spans every rank
  // of this job (key -1 - job_tag); a device communicator spans one node's
  // device ranks (key = job-namespaced node id). The single-tenant keys are
  // the historical -1 / node id.
  const int comm_key = comm == Comm::kWorld
                           ? ctx.node->barrier_world_key()
                           : ctx.node->oracle_node(ctx.node->node());
  const int participants = comm == Comm::kWorld ? ctx.world_size : ctx.device_size;
  if (sim::InvariantObserver* obs = ctx.sim().invariant_observer(); obs != nullptr) {
    obs->barrier_enter(comm_key, ctx.node->oracle_rank(ctx.world_rank),
                       participants);
  }
  co_await charge_issue(ctx);
  rt::Command c;
  c.kind = rt::CmdKind::kBarrier;
  c.comm = comm;
  co_await ctx.rs->cmd_q.enqueue(c);
  rt::Ack a = co_await ctx.rs->ack_q.dequeue();
  assert(a.kind == rt::AckKind::kBarrierDone);
  (void)a;
  if (sim::InvariantObserver* obs = ctx.sim().invariant_observer(); obs != nullptr) {
    obs->barrier_leave(comm_key, ctx.node->oracle_rank(ctx.world_rank));
  }
  ctx.trace("barrier", sim::Category::kBarrier, begin, ctx.sim().now());
}

sim::Proc<void> finish(Context& ctx) {
  // The traced drain span covers waiting for all outstanding remote memory
  // accesses to complete (the host holds the kFinished ack until then).
  const sim::Time begin = ctx.sim().now();
  co_await charge_issue(ctx);
  rt::Command c;
  c.kind = rt::CmdKind::kFinish;
  c.flush_id = ctx.rs->next_flush_id;
  co_await ctx.rs->cmd_q.enqueue(c);
  rt::Ack a = co_await ctx.rs->ack_q.dequeue();
  assert(a.kind == rt::AckKind::kFinished);
  (void)a;
  ctx.trace("drain", sim::Category::kDrain, begin, ctx.sim().now());
}

sim::Proc<void> put_2d_notify(Context& ctx, Window win, int target_rank,
                              std::size_t offset, std::size_t row_bytes,
                              std::size_t rows, std::size_t target_stride,
                              const void* src, std::size_t src_stride, int tag) {
  // Rows are independent puts; only the last one carries the notification,
  // and notifications follow data completion in order, so the notification
  // still signals full-region arrival for same-target transfers.
  const std::byte* s = static_cast<const std::byte*>(src);
  for (std::size_t r = 0; r + 1 < rows; ++r) {
    co_await put(ctx, win, target_rank, offset + r * target_stride, row_bytes,
                 s + r * src_stride);
  }
  if (rows > 0) {
    co_await put_notify(ctx, win, target_rank, offset + (rows - 1) * target_stride,
                        row_bytes, s + (rows - 1) * src_stride, tag);
  }
}

sim::Proc<void> put_notify_all(Context& ctx, Window win, int target_device_rank,
                               std::size_t offset, std::size_t bytes, const void* src,
                               int tag) {
  rt::NodeRuntime& node = *ctx.node;
  const int rpd = node.ranks_per_device();
  const int rpn = node.ranks_per_node();
  const int target_node_id = target_device_rank / rpn;
  // One data transfer to the addressed rank, then zero-byte notified puts to
  // every other device rank of the same device (no duplicate payload, §V).
  co_await put_notify(ctx, win, target_device_rank, offset, bytes, src, tag);
  for (int r = 0; r < rpd; ++r) {
    const int rank = target_node_id * rpn + r;
    if (rank == target_device_rank) continue;
    co_await put_notify(ctx, win, rank, offset, 0, src, tag);
  }
}

sim::Proc<void> bcast_notify(Context& ctx, Window win, Comm comm, int root,
                             std::size_t offset, std::size_t bytes, void* buf, int tag) {
  // Binary-tree broadcast in the rank space relative to the root. Non-root
  // ranks first wait for their parent's notified put, then forward.
  const int size = comm_size(ctx, comm);
  const int me = comm_rank(ctx, comm);
  const int rel = (me - root + size) % size;
  const int base = comm == Comm::kWorld ? 0 : ctx.node->node() * ctx.device_size;
  if (rel != 0) {
    co_await wait_notifications(ctx, win.device_id, kAnySource, tag, 1);
  }
  for (int child = 2 * rel + 1; child <= 2 * rel + 2; ++child) {
    if (child >= size) break;
    const int child_rank = base + (child + root) % size;
    co_await put_notify(ctx, win, child_rank, offset, bytes, buf, tag);
  }
}

sim::Proc<void> log(Context& ctx, const char* text, std::int64_t value) {
  rt::LogEntry e;
  e.rank = ctx.world_rank;
  e.value = value;
  std::strncpy(e.text, text, sizeof(e.text) - 1);
  co_await charge_issue(ctx);
  co_await ctx.node->log_queue().enqueue(e);
}

}  // namespace dcuda
