#include "runtime/node_runtime.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "sim/invariants.h"

namespace dcuda::rt {

namespace {
// Global window ids: (job, communicator, per-communicator creation
// sequence). Window creation is collective, so every node derives the same
// id for the same world window without any agreement traffic; the per-rank
// device-side counter is translated through the block manager's table
// (§III-B's hash map). The job tag keeps concurrent gang-scheduled jobs' windows from
// colliding in the observer's lifecycle tracking; tag 0 (single-tenant)
// reproduces the historical ids bit for bit.
std::int32_t global_win_id(int job_tag, Comm comm, std::int32_t seq) {
  return (static_cast<std::int32_t>(job_tag) << 22) |
         (static_cast<std::int32_t>(comm) << 20) | seq;
}
}  // namespace

bool Frontier::complete(std::uint64_t id) {
  if (id != value + 1) {
    ahead.insert(std::upper_bound(ahead.begin(), ahead.end(), id), id);
    return false;
  }
  ++value;
  auto it = ahead.begin();
  for (; it != ahead.end() && *it <= value + 1; ++it) {
    if (*it == value + 1) ++value;
  }
  ahead.erase(ahead.begin(), it);
  return true;
}

queue::Transport NodeRuntime::pcie_transport(pcie::Dir write_dir) {
  queue::Transport t;
  pcie::PcieLink* link = &pcie_;
  t.write = [link, write_dir](double bytes, std::function<void()> commit) {
    return link->post_write(write_dir, bytes, std::move(commit));
  };
  const pcie::Dir read_dir = write_dir == pcie::Dir::kHostToDevice
                                 ? pcie::Dir::kDeviceToHost
                                 : pcie::Dir::kHostToDevice;
  t.read_tail = [link, read_dir](double bytes) {
    return link->mapped_read(read_dir, bytes);
  };
  return t;
}

queue::Transport NodeRuntime::doorbell_transport() {
  queue::Transport t;
  pcie::PcieLink* link = &pcie_;
  t.write = [link](double bytes, std::function<void()> commit) {
    return link->doorbell(pcie::Dir::kDeviceToHost, bytes, std::move(commit));
  };
  t.read_tail = [link](double bytes) {
    return link->mapped_read(pcie::Dir::kHostToDevice, bytes);
  };
  return t;
}

NodeRuntime::NodeRuntime(sim::Simulation& s, gpu::Device& dev, mpi::Endpoint& ep,
                         pcie::PcieLink& pcie, net::Fabric& fabric,
                         const sim::MachineConfig& cfg, int ranks_per_device,
                         int host_ranks, int job_tag,
                         sim::Mailbox<net::Packet>& eager_rx)
    : sim_(s), dev_(dev), ep_(ep), pcie_(pcie), fabric_(fabric), cfg_(cfg),
      rpd_(ranks_per_device), host_ranks_(host_ranks), job_tag_(job_tag),
      eager_rx_(eager_rx),
      host_cpu_(s, 1), nic_proc_(s, 1), board_writes_(s) {
  host_compute_ = std::make_unique<sim::SharedResource>(
      s, cfg.host.flops, cfg.host.flops / cfg.host.threads_to_saturate);
  host_memory_ = std::make_unique<sim::SharedResource>(
      s, cfg.host.mem_bandwidth,
      cfg.host.mem_bandwidth / cfg.host.threads_to_saturate);
  const int rpn = ranks_per_node();
  ranks_.reserve(static_cast<size_t>(rpn));
  for (int r = 0; r < rpn; ++r) {
    // Device-rank queues cross PCIe; host-rank queues live entirely in host
    // memory (local transport). Under kDeviceInitiated a device rank's
    // command writes ring the NIC doorbell instead of landing in host
    // memory — same posted-write timing, separately traced.
    const bool host = is_host_rank(r);
    ranks_.push_back(std::make_unique<RankState>(
        s, node() * rpn + r, r,
        host ? queue::local_transport(s)
             : (device_initiated() ? doorbell_transport()
                                   : pcie_transport(pcie::Dir::kDeviceToHost)),
        host ? queue::local_transport(s) : pcie_transport(pcie::Dir::kHostToDevice),
        host ? queue::local_transport(s) : pcie_transport(pcie::Dir::kHostToDevice),
        cfg.runtime));
    if (sim::Tracer* tr = dev.tracer()) {
      // All ranks of the node share the per-device depth counters.
      ranks_.back()->cmd_q.set_tracer(tr, phys_node(), "cmd_queue");
      ranks_.back()->ack_q.set_tracer(tr, phys_node(), "ack_queue");
      ranks_.back()->notif_q.set_tracer(tr, phys_node(), "notif_queue");
    }
    s.spawn(command_loop(r),
            "bm@" + std::to_string(phys_node()) + "/" + std::to_string(r),
            /*daemon=*/true);
  }
  log_q_ = std::make_unique<queue::CircularQueue<LogEntry>>(
      s, cfg.runtime.logging_queue_entries, pcie_transport(pcie::Dir::kDeviceToHost));
  if (sim::Tracer* tr = dev.tracer()) {
    log_q_->set_tracer(tr, phys_node(), "log_queue");
  }
  s.spawn(meta_loop(), "event-handler@" + std::to_string(phys_node()),
          /*daemon=*/true);
  s.spawn(log_loop(), "log@" + std::to_string(phys_node()), /*daemon=*/true);
  if (cfg_.rma.eager_enabled()) {
    // Only spawned when the fast path is on: disabled runs keep the exact
    // reference event schedule (golden traces).
    eager_agg_.resize(static_cast<size_t>(num_nodes()));
    rdv_landed_trig_ = std::make_unique<sim::Trigger>(s);
    s.spawn(eager_loop(), "eager@" + std::to_string(phys_node()),
            /*daemon=*/true);
  }
}

const NodeRuntime::WinRankInfo* NodeRuntime::window_peer(std::int32_t global_id,
                                                         int local_rank) const {
  auto it = windows_.find(global_id);
  if (it == windows_.end()) return nullptr;
  const WinRankInfo& info = it->second.per_rank[static_cast<size_t>(local_rank)];
  return info.valid ? &info : nullptr;
}

void NodeRuntime::device_local_notify(int target_local_rank, Notification n) {
  if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
    obs->notification_delivered(/*via_board=*/true);
  }
  board_deposit(target_local_rank, {&n, 1});
}

void NodeRuntime::report_local_notified_put(int origin_rank, int target_rank,
                                            std::int32_t win_global_id,
                                            std::uint64_t bytes, int tag) const {
  sim::InvariantObserver* obs = sim_.invariant_observer();
  if (obs == nullptr) return;
  const int origin = oracle_rank(origin_rank);
  const int target = oracle_rank(target_rank);
  obs->data_put_issued(origin, target);
  obs->notify_put_ordered(origin, target, win_global_id, bytes, tag);
  obs->data_put_landed(origin, target);
  obs->notify_put_delivered(origin, target, win_global_id, bytes, tag);
}

sim::Proc<void> NodeRuntime::dispatch_cost(bool host_path) {
  // The NIC command processor is FIFO like the host worker (concurrent ships
  // to one target must hit the wire in order), but cheaper per item and not
  // shared with any host-side work.
  const bool nic = device_initiated() && !host_path;
  sim::FifoResource& worker = nic ? nic_proc_ : host_cpu_;
  co_await worker.acquire();
  co_await sim_.delay(nic ? cfg_.runtime.nic_dispatch_cost
                          : cfg_.runtime.dispatch_cost);
  worker.release();
}

sim::Proc<void> NodeRuntime::command_loop(int local_rank) {
  RankState& rs = rank(local_rank);
  // One name for every command processor of this rank — built once, not per
  // dispatched command (the loop runs once per device-side operation).
  const std::string proc_name =
      "cmd@" + std::to_string(phys_node()) + "/" + std::to_string(local_rank);
  const bool host_path = is_host_rank(local_rank);
  for (;;) {
    Command c = co_await rs.cmd_q.dequeue();
    co_await dispatch_cost(host_path);
    sim_.spawn(process_command(local_rank, c), proc_name);
  }
}

sim::Proc<void> NodeRuntime::process_command(int local_rank, Command c) {
  // Round-robin queue polling: the command sits until the worker's sweep
  // reaches this rank. Spawned per command, so discovery latency pipelines
  // across commands while per-rank processing order is preserved (spawn
  // order == resume order). The NIC backend skips the sweep entirely —
  // doorbells are interrupt-driven (host ranks keep the host worker).
  if (!device_initiated() || is_host_rank(local_rank)) {
    co_await sim_.delay(cfg_.runtime.host_wakeup_latency);
  }
  switch (c.kind) {
    case CmdKind::kWinCreate:
      co_await handle_win_create(local_rank, c);
      break;
    case CmdKind::kWinFree:
      co_await handle_win_free(local_rank, c);
      break;
    case CmdKind::kPut:
      co_await handle_put(local_rank, c);
      break;
    case CmdKind::kGet:
      co_await handle_get(local_rank, c);
      break;
    case CmdKind::kBarrier:
      co_await handle_barrier(local_rank, c);
      break;
    case CmdKind::kFinish:
      co_await handle_finish(local_rank, c);
      break;
  }
}

sim::Proc<void> NodeRuntime::handle_win_create(int local_rank, Command c) {
  RankState& rs = rank(local_rank);
  const int comm_idx = static_cast<int>(c.comm);
  const std::int32_t gid = global_win_id(
      job_tag_, c.comm,
      rs.win_create_seq[static_cast<size_t>(comm_idx)]++);
  if (rs.win_translate.size() <= static_cast<std::size_t>(c.win_device_id)) {
    rs.win_translate.resize(static_cast<std::size_t>(c.win_device_id) + 1, -1);
  }
  rs.win_translate[static_cast<std::size_t>(c.win_device_id)] = gid;

  WindowInfo& wi = windows_[gid];
  if (wi.per_rank.empty()) {
    wi.comm = c.comm;
    wi.per_rank.resize(static_cast<size_t>(ranks_per_node()));
    if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
      obs->window_created(gid);
    }
  }
  WinRankInfo& info = wi.per_rank[static_cast<size_t>(local_rank)];
  info.base = c.win_base;
  info.bytes = c.win_bytes;
  info.win_device_id = c.win_device_id;
  info.valid = true;
  ++wi.registered;

  if (wi.registered < ranks_per_node()) co_return;
  // Last local participant: synchronize across nodes for world windows (the
  // collective part of win_create), then acknowledge every local rank.
  if (c.comm == Comm::kWorld && ep_.size() > 1) co_await ep_.barrier();
  for (int r = 0; r < ranks_per_node(); ++r) {
    Ack a;
    a.kind = AckKind::kWinCreated;
    a.win_global_id = gid;
    a.win_device_id = wi.per_rank[static_cast<size_t>(r)].win_device_id;
    co_await rank(r).ack_q.enqueue(a);
  }
}

sim::Proc<void> NodeRuntime::handle_win_free(int local_rank, Command c) {
  RankState& rs = rank(local_rank);
  const std::int32_t gid = rs.global_window(c.win_device_id);
  WindowInfo& wi = windows_.at(gid);
  ++wi.freed;
  rs.win_translate[static_cast<std::size_t>(c.win_device_id)] = -1;
  if (wi.freed < ranks_per_node()) co_return;
  if (wi.comm == Comm::kWorld && ep_.size() > 1) co_await ep_.barrier();
  const std::vector<WinRankInfo> per_rank = wi.per_rank;  // acks need ids
  windows_.erase(gid);
  if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
    obs->window_freed(gid);
  }
  for (int r = 0; r < ranks_per_node(); ++r) {
    Ack a;
    a.kind = AckKind::kWinFreed;
    a.win_global_id = gid;
    a.win_device_id = per_rank[static_cast<size_t>(r)].win_device_id;
    co_await rank(r).ack_q.enqueue(a);
  }
}

sim::Proc<void> NodeRuntime::handle_put(int local_rank, Command c) {
  RankState& rs = rank(local_rank);
  if (c.local_already_copied) {
    // Shared-memory notified put (a local put without notification never
    // reaches the host): the device library already moved the data; the
    // block manager loops the notification through the host (§III-A) and
    // completes the flush id. Per-rank command processing orders it.
    assert(c.notify);
    const int target_local = c.target_rank - node() * ranks_per_node();
    const std::int32_t gid = rs.global_window(c.win_device_id);
    const WinRankInfo* peer = window_peer(gid, target_local);
    assert(peer != nullptr);
    report_local_notified_put(rs.global_rank, c.target_rank, gid, c.bytes,
                              c.tag);
    const Notification n{peer->win_device_id, rs.global_rank, c.tag};
    co_await deliver(target_local, {&n, 1});
    co_await complete_flush(rs, c.flush_id, c.win_device_id);
    co_return;
  }

  const int target_node = c.target_rank / ranks_per_node();
  if (cfg_.rma.eager_enabled() && c.bytes <= cfg_.rma.eager_threshold) {
    // Small-put fast path: park the payload in the per-target aggregator
    // instead of the two-message meta + payload pipeline. Non-notified puts
    // take it too — put_2d rows must share their final notification's
    // channel or the notification could overtake the data.
    co_await handle_eager_put(local_rank, c);
    co_return;
  }
  Meta m;
  m.kind = CmdKind::kPut;
  m.origin_rank = rs.global_rank;
  m.target_rank = c.target_rank;
  m.win_global_id = rs.global_window(c.win_device_id);
  m.offset = c.offset;
  m.bytes = c.bytes;
  m.tag = c.tag;
  m.notify = c.notify;

  sim::InvariantObserver* obs = sim_.invariant_observer();
  if (cfg_.rma.eager_enabled()) {
    // Rendezvous fence (protocol.h): this put takes the next per-(rank,
    // target node) sequence number; the target recovers it from per-rank
    // meta arrival order, so everything from the increment to the isends
    // below must stay suspension-free. A notified put additionally routes
    // its notification through the FIFO eager stream as a zero-byte record
    // fenced on its own sequence, so it cannot overtake parked eager data
    // and cannot commit before its own (or any earlier) payload landed.
    const std::uint64_t seq = ++rs.rdv_issued[target_node];
    if (obs != nullptr) {
      obs->data_put_issued(oracle_rank(rs.global_rank),
                           oracle_rank(c.target_rank));
    }
    m.notify = false;
    if (c.notify) {
      if (obs != nullptr) {
        obs->notify_put_ordered(oracle_rank(rs.global_rank),
                                oracle_rank(c.target_rank), m.win_global_id,
                                c.bytes, c.tag);
      }
      EagerAggregator& agg = eager_agg_[static_cast<size_t>(target_node)];
      EagerPutRecord r;
      r.origin_rank = rs.global_rank;
      r.target_rank = c.target_rank;
      r.win_global_id = m.win_global_id;
      r.offset = c.offset;
      r.bytes = 0;  // payload travels on the meta+payload pipeline
      r.tag = c.tag;
      r.notify = true;
      r.rdv_before = seq;
      r.rdv_notify = true;
      agg.records.push_back(r);
      // flush_id 0: the rendezvous waits below complete the real flush.
      agg.origins.push_back(EagerOrigin{local_rank, 0, -1});
    }
  } else if (obs != nullptr && c.bytes <= cfg_.mpi.eager_limit) {
    // Sequence point of the §III-B non-overtaking guarantee: metas leave in
    // per-rank command order on a FIFO channel and eager payloads follow the
    // same posting-order matching. (Rendezvous-sized transfers promise only
    // completion order, like MPI, so they are not sequence-tracked while the
    // fast path — and with it the rendezvous fence — is off.)
    obs->data_put_issued(oracle_rank(rs.global_rank),
                         oracle_rank(c.target_rank));
    if (c.notify) {
      obs->notify_put_ordered(oracle_rank(rs.global_rank),
                              oracle_rank(c.target_rank), m.win_global_id,
                              c.bytes, c.tag);
    }
  }
  // Step 2/3 of Fig. 5: forward meta information to the target event handler
  // and move the data directly device-to-device with a second nonblocking
  // send. The meta buffer must stay alive until the send buffered it: `m`
  // lives in this coroutine's frame, which waits for the send below.
  mpi::Request rm = ep_.isend(target_node, kMetaTag, gpu::mem_ref(&m, 1));
  mpi::Request rd;
  if (c.bytes > 0) {
    rd = ep_.isend(target_node, kPutDataTagBase + rs.global_rank,
                   gpu::MemRef{c.local_ptr, c.bytes, phys_node()});
  }
  if (cfg_.rma.eager_enabled() &&
      !eager_agg_[static_cast<size_t>(target_node)].records.empty()) {
    // Ship whatever is parked for this target — records aggregated before
    // this put (their data must not wait behind a long transfer) and, for a
    // notified put, its own fence record (no reason to delay the
    // notification by the aggregation window on top of the rendezvous).
    co_await flush_eager(target_node);
  }
  co_await rm.wait();
  if (rd.valid()) co_await rd.wait();
  // Step 4: free meta info (this frame) and update the device flush counter.
  co_await complete_flush(rs, c.flush_id, c.win_device_id);
}

sim::Proc<void> NodeRuntime::handle_get(int local_rank, Command c) {
  RankState& rs = rank(local_rank);
  // A notified get signals the *origin* once the data arrived.
  const Notification n{c.win_device_id, c.target_rank, c.tag};
  if (c.local_already_copied) {
    if (c.notify) co_await deliver(local_rank, {&n, 1});
    co_await complete_flush(rs, c.flush_id, c.win_device_id);
    co_return;
  }
  const int target_node = c.target_rank / ranks_per_node();
  // Post the receive for the data before requesting it, so the response can
  // never be unexpected-buffered into the wrong transfer.
  mpi::Request rr = ep_.irecv(target_node, kGetDataTagBase + rs.global_rank,
                              gpu::MemRef{c.local_ptr, c.bytes, phys_node()});
  Meta m;
  m.kind = CmdKind::kGet;
  m.origin_rank = rs.global_rank;
  m.target_rank = c.target_rank;
  m.win_global_id = rs.global_window(c.win_device_id);
  m.offset = c.offset;
  m.bytes = c.bytes;
  m.tag = c.tag;
  // `m` outlives the send: this frame waits for it.
  mpi::Request rm = ep_.isend(target_node, kMetaTag, gpu::mem_ref(&m, 1));
  co_await rm.wait();
  co_await rr.wait();
  co_await complete_flush(rs, c.flush_id, c.win_device_id);
  if (c.notify) co_await deliver(local_rank, {&n, 1});
}

sim::Proc<void> NodeRuntime::handle_barrier(int local_rank, Command c) {
  // The device communicator covers only the device ranks; the world
  // communicator additionally includes this node's host ranks.
  assert(c.comm == Comm::kWorld || !is_host_rank(local_rank));
  (void)local_rank;
  const int comm_idx = static_cast<int>(c.comm);
  const int participants = c.comm == Comm::kWorld ? ranks_per_node() : rpd_;
  ++barrier_arrivals_[static_cast<size_t>(comm_idx)];
  if (barrier_arrivals_[static_cast<size_t>(comm_idx)] < participants) co_return;
  barrier_arrivals_[static_cast<size_t>(comm_idx)] = 0;
  if (c.comm == Comm::kWorld && ep_.size() > 1) co_await ep_.barrier();
  for (int r = 0; r < participants; ++r) {
    Ack a;
    a.kind = AckKind::kBarrierDone;
    co_await rank(r).ack_q.enqueue(a);
  }
}

sim::Proc<void> NodeRuntime::handle_finish(int local_rank, Command c) {
  RankState& rs = rank(local_rank);
  // Drain: wait until every issued remote memory access completed.
  while (rs.flush.value < c.flush_id) co_await rs.host_flush_trig.wait();
  Ack a;
  a.kind = AckKind::kFinished;
  co_await rs.ack_q.enqueue(a);
}

sim::Proc<void> NodeRuntime::meta_loop() {
  Meta m;
  const std::string proc_name = "meta@" + std::to_string(node());
  for (;;) {
    co_await ep_.recv(mpi::kAnySource, kMetaTag, gpu::mem_ref(&m, 1));
    // Rendezvous fence: metas travel FIFO per (origin, target) node pair and
    // the origin issues them in per-rank command order without suspension, so
    // counting kPut metas per origin rank here reconstructs the origin-side
    // rdv_issued sequence exactly (protocol.h). Assigned before the dispatch
    // suspension — concurrent handle_meta coroutines must not race for it.
    std::uint64_t rdv_seq = 0;
    if (cfg_.rma.eager_enabled() && m.kind == CmdKind::kPut) {
      rdv_seq = ++rdv_meta_seen_[m.origin_rank];
    }
    co_await dispatch_cost();
    sim_.spawn(handle_meta(m, rdv_seq), proc_name);
  }
}

sim::Proc<void> NodeRuntime::handle_meta(Meta m, std::uint64_t rdv_seq) {
  const int target_local = m.target_rank - node() * ranks_per_node();
  assert(target_local >= 0 && target_local < ranks_per_node());
  const int origin_node = m.origin_rank / ranks_per_node();
  auto it = windows_.find(m.win_global_id);
  assert(it != windows_.end() && "remote access to unknown window");
  const WinRankInfo& info = it->second.per_rank[static_cast<size_t>(target_local)];
  assert(info.valid);
  assert(m.offset + m.bytes <= info.bytes && "remote access out of window bounds");

  if (m.kind == CmdKind::kPut) {
    // Step 6 of Fig. 5: post the receive for the payload into the window,
    // then notify the target rank once the data landed.
    if (m.bytes > 0) {
      co_await ep_.recv(origin_node, kPutDataTagBase + m.origin_rank,
                        gpu::MemRef{info.base + m.offset, m.bytes, phys_node()});
    }
    if (cfg_.rma.eager_enabled()) {
      // Advance the per-origin-rank landed frontier and wake fenced batch
      // handlers. The notification (if any) arrives separately as a
      // zero-byte rdv_notify eager record — never from this coroutine.
      assert(!m.notify && "fast path on: notifications ride the eager stream");
      if (sim::InvariantObserver* obs = sim_.invariant_observer();
          obs != nullptr) {
        obs->data_put_landed(oracle_rank(m.origin_rank),
                             oracle_rank(m.target_rank));
      }
      mark_rdv_landed(m.origin_rank, rdv_seq);
    } else if (sim::InvariantObserver* obs = sim_.invariant_observer();
               obs != nullptr && m.bytes <= cfg_.mpi.eager_limit) {
      obs->data_put_landed(oracle_rank(m.origin_rank),
                           oracle_rank(m.target_rank));
    }
    if (m.notify) {
      if (sim::InvariantObserver* obs = sim_.invariant_observer();
          obs != nullptr && m.bytes <= cfg_.mpi.eager_limit) {
        obs->notify_put_delivered(oracle_rank(m.origin_rank),
                                  oracle_rank(m.target_rank), m.win_global_id,
                                  m.bytes, m.tag);
      }
      const Notification n{info.win_device_id, m.origin_rank, m.tag};
      co_await deliver(target_local, {&n, 1});
    }
  } else {
    assert(m.kind == CmdKind::kGet);
    // Serve the read: send the requested window range back to the origin.
    co_await ep_.send(origin_node, kGetDataTagBase + m.origin_rank,
                      gpu::MemRef{info.base + m.offset, m.bytes, phys_node()});
  }
}

sim::Proc<void> NodeRuntime::handle_eager_put(int local_rank, Command c) {
  RankState& rs = rank(local_rank);
  const int target_node = c.target_rank / ranks_per_node();
  assert(target_node != node() && "local puts use the shared-memory path");
  EagerAggregator& agg = eager_agg_[static_cast<size_t>(target_node)];

  // Byte-cap pre-flush: if appending would blow max_batch_bytes, stage the
  // parked batch first (synchronously — staging must not reorder against
  // this append) and ship it after the append below. The cap is thus a real
  // upper bound on batch payload, not a flush trigger crossed after the fact.
  std::optional<StagedEager> overflow;
  if (!agg.records.empty() && c.bytes > 0 &&
      agg.payload.size() + c.bytes > cfg_.rma.max_batch_bytes) {
    overflow = stage_eager(target_node);
  }

  EagerPutRecord r;
  r.origin_rank = rs.global_rank;
  r.target_rank = c.target_rank;
  r.win_global_id = rs.global_window(c.win_device_id);
  r.offset = c.offset;
  r.bytes = c.bytes;
  r.tag = c.tag;
  r.notify = c.notify;
  // Fence on every rendezvous-path put this rank already issued to the
  // target node: the record's data/notification must not land before them.
  r.rdv_before = rs.rdv_issued[target_node];

  if (sim::InvariantObserver* obs = sim_.invariant_observer();
      obs != nullptr) {
    // Appends happen in per-rank command order (no suspension between
    // coroutine entry and here), flushes are FIFO per target, and the
    // runtime fabric channel shares the per-pair resequencer — so the
    // eager path keeps the §III-B guarantee for every size it carries.
    obs->data_put_issued(oracle_rank(rs.global_rank),
                         oracle_rank(c.target_rank));
    if (c.notify) {
      obs->notify_put_ordered(oracle_rank(rs.global_rank),
                              oracle_rank(c.target_rank), r.win_global_id,
                              c.bytes, c.tag);
    }
  }

  const bool first = agg.records.empty();
  agg.records.push_back(r);
  agg.origins.push_back(EagerOrigin{local_rank, c.flush_id, c.win_device_id});
  if (c.bytes > 0) {
    agg.payload.insert(agg.payload.end(), c.local_ptr, c.local_ptr + c.bytes);
  }
  if (sim::Tracer* tr = dev_.tracer(); tr && tr->enabled()) tr->bump("eager_puts");
  const std::uint64_t epoch_at_append = agg.epoch;

  if (overflow) co_await ship_eager(std::move(*overflow));

  EagerAggregator& agg2 = eager_agg_[static_cast<size_t>(target_node)];
  if (agg2.epoch != epoch_at_append || agg2.records.empty()) {
    // A concurrent flush (timer or another rank's trigger) already shipped
    // the batch holding this record while we paid for the overflow ship.
    co_return;
  }
  if (agg2.records.size() >= static_cast<size_t>(cfg_.rma.max_batch) ||
      agg2.payload.size() >= cfg_.rma.max_batch_bytes) {
    co_await flush_eager(target_node);
  } else if (first) {
    // Short and fixed, like MPI's per-message names: no allocation per timer.
    sim_.spawn(eager_flush_timer(target_node, epoch_at_append), "eager-timer");
  }
}

sim::Proc<void> NodeRuntime::eager_flush_timer(int target_node,
                                               std::uint64_t epoch) {
  co_await sim_.delay(cfg_.rma.aggregation_window);
  // A size-triggered flush already shipped this batch (and bumped the
  // epoch); anything parked now belongs to a newer batch with its own timer.
  if (eager_agg_[static_cast<size_t>(target_node)].epoch != epoch) co_return;
  co_await flush_eager(target_node);
}

NodeRuntime::StagedEager NodeRuntime::stage_eager(int target_node) {
  EagerAggregator& agg = eager_agg_[static_cast<size_t>(target_node)];
  assert(!agg.records.empty());
  ++agg.epoch;  // invalidate the pending timer before any suspension
  const std::size_t record_bytes = agg.records.size() * sizeof(EagerPutRecord);
  const double wire_bytes =
      kEagerEnvelopeBytes +
      static_cast<double>(agg.records.size()) * kEagerRecordWireBytes +
      static_cast<double>(agg.payload.size());
  StagedEager s;
  s.target_node = target_node;
  s.batch = net::Packet(ep_.phys(node()), ep_.phys(target_node), wire_bytes,
                        net::kRuntimeChannel, record_bytes + agg.payload.size());
  EagerBatchHeader h;
  h.origin_node = node();
  h.records = static_cast<std::uint32_t>(agg.records.size());
  h.batch_seq = ++agg.next_batch_seq;
  s.batch.set_header(h);
  std::byte* out = s.batch.data().data();
  std::memcpy(out, agg.records.data(), record_bytes);
  if (!agg.payload.empty()) {
    std::memcpy(out + record_bytes, agg.payload.data(), agg.payload.size());
  }
  s.origins = std::move(agg.origins);
  agg.records.clear();
  agg.origins.clear();
  agg.payload.clear();
  return s;
}

sim::Proc<void> NodeRuntime::ship_eager(StagedEager s) {
  // One send call per batch (the reference path pays two MPI calls per
  // put). The dispatch resource — host worker or NIC processor — is FIFO,
  // so concurrent ships to the same target hit the wire in batch_seq order.
  co_await dispatch_cost();

  if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
    const EagerBatchHeader h = s.batch.header<EagerBatchHeader>();
    obs->eager_batch_flushed(oracle_node(node()), oracle_node(s.target_node),
                             h.batch_seq, static_cast<int>(h.records));
  }
  if (sim::Tracer* tr = dev_.tracer(); tr && tr->enabled()) {
    tr->bump("eager_batches");
  }
  // The payload was gathered from device memory: cap wire entry at the
  // GPUDirect read rate, matching the MPI eager path for device buffers.
  fabric_.send(std::move(s.batch), cfg_.pcie.gpudirect_bandwidth);
  // The batch buffered the payload, so origin-side completion is local
  // completion — same semantics as the MPI eager send.
  for (const EagerOrigin& o : s.origins) {
    co_await complete_flush(rank(o.local_rank), o.flush_id, o.win_device_id);
  }
}

sim::Proc<void> NodeRuntime::flush_eager(int target_node) {
  co_await ship_eager(stage_eager(target_node));
}

sim::Proc<void> NodeRuntime::eager_loop() {
  for (;;) {
    net::Packet p = co_await eager_rx_.pop();
    co_await dispatch_cost();
    // Processed inline, not spawned: two in-flight batch handlers blocked
    // on a full notification queue could resume out of order and break the
    // FIFO delivery the oracle (and put_2d_notify) relies on.
    co_await handle_eager_batch(std::move(p));
  }
}

sim::Proc<void> NodeRuntime::handle_eager_batch(net::Packet p) {
  const EagerBatchHeader h = p.header<EagerBatchHeader>();
  if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
    obs->eager_batch_delivered(oracle_node(h.origin_node), oracle_node(node()),
                               h.batch_seq, static_cast<int>(h.records));
  }
  // Land every payload into its window, collecting notifications grouped by
  // target rank; then each group commits with a single batched queue write.
  std::vector<std::vector<Notification>>& groups = eager_groups_;
  groups.resize(static_cast<size_t>(ranks_per_node()));
  const std::byte* records = p.data().data();
  const std::byte* payload = records + h.records * sizeof(EagerPutRecord);
  assert(h.records * sizeof(EagerPutRecord) <= p.data().size());
  std::size_t off = 0;
  for (std::uint32_t i = 0; i < h.records; ++i) {
    EagerPutRecord r;
    std::memcpy(&r, records + i * sizeof(EagerPutRecord), sizeof(r));
    // Rendezvous fence: hold this record (and with it the rest of the batch
    // and all later batches — eager_loop processes inline, keeping FIFO)
    // until every rendezvous payload its origin rank issued before it has
    // landed. The meta/payload pipeline progresses independently of this
    // coroutine, so the wait always resolves.
    if (r.rdv_before > 0) {
      Frontier& landed = rdv_landed_[r.origin_rank];
      while (landed.value < r.rdv_before) co_await rdv_landed_trig_->wait();
    }
    const int target_local = r.target_rank - node() * ranks_per_node();
    assert(target_local >= 0 && target_local < ranks_per_node());
    auto it = windows_.find(r.win_global_id);
    assert(it != windows_.end() && "eager put to unknown window");
    const WinRankInfo& info =
        it->second.per_rank[static_cast<size_t>(target_local)];
    assert(info.valid);
    assert(r.offset + r.bytes <= info.bytes && "eager put out of window bounds");
    if (r.bytes > 0) {
      assert(payload + off + r.bytes <= p.data().data() + p.data().size());
      std::memcpy(info.base + r.offset, payload + off, r.bytes);
      off += r.bytes;
    }
    if (sim::InvariantObserver* obs = sim_.invariant_observer();
        obs != nullptr) {
      // rdv_notify stand-ins carry no data of their own — their payload
      // landed (and was reported) on the meta+payload pipeline.
      if (!r.rdv_notify) {
        obs->data_put_landed(oracle_rank(r.origin_rank),
                             oracle_rank(r.target_rank));
      }
      if (r.notify) {
        // bytes is diagnostic-only in the oracle; rdv_notify records report
        // 0 (the payload size lives with the rendezvous transfer).
        obs->notify_put_delivered(oracle_rank(r.origin_rank),
                                  oracle_rank(r.target_rank), r.win_global_id,
                                  r.bytes, r.tag);
      }
    }
    if (r.notify) {
      groups[static_cast<size_t>(target_local)].push_back(
          Notification{info.win_device_id, r.origin_rank, r.tag});
    }
  }
  for (int lr = 0; lr < ranks_per_node(); ++lr) {
    std::vector<Notification>& g = groups[static_cast<size_t>(lr)];
    if (!g.empty()) co_await deliver(lr, g);
    g.clear();
  }
}

void NodeRuntime::mark_rdv_landed(int origin_rank, std::uint64_t seq) {
  assert(seq > 0);
  // Rendezvous payloads can land out of order (MPI eager vs. RTS-CTS), so
  // only a contiguous prefix advances the frontier the batch fence reads.
  if (rdv_landed_[origin_rank].complete(seq)) rdv_landed_trig_->notify_all();
}

sim::Proc<void> NodeRuntime::deliver(int local_rank,
                                     std::span<const Notification> ns) {
  assert(!ns.empty());
  const bool via_board = device_initiated() && !is_host_rank(local_rank);
  if (sim::InvariantObserver* obs = sim_.invariant_observer(); obs != nullptr) {
    for (std::size_t i = 0; i < ns.size(); ++i) {
      obs->notification_delivered(via_board);
    }
  }
  sim::Tracer* tr = dev_.tracer();
  const bool traced = tr != nullptr && tr->enabled();
  const sim::Time begin = sim_.now();
  const double n = static_cast<double>(ns.size());
  if (!via_board) {
    co_await rank(local_rank).notif_q.enqueue_batch(ns);
    if (traced) {
      tr->record(sim::TraceSpan{begin, sim_.now(), phys_node(),
                                sim::kRuntimeLane, "notify",
                                sim::Category::kNotify, 0.0});
      tr->bump("notifications_delivered", n);
    }
    co_return;
  }
  // The records deposit at posted-write visibility; H2D posted writes commit
  // in issue order, sharing the ordering clamp with the flush-counter
  // writes, so board arrivals keep the notif_q's FIFO delivery guarantee.
  const double bytes = n * static_cast<double>(sizeof(Notification));
  board_writes_.push(BoardWrite{local_rank, traced, begin, {ns.begin(), ns.end()}});
  co_await pcie_.post_write(pcie::Dir::kHostToDevice, bytes,
                            [this] { commit_board_write(); });
}

void NodeRuntime::commit_board_write() {
  std::optional<BoardWrite> w = board_writes_.try_pop();
  assert(w.has_value());
  board_deposit(w->local_rank, w->ns);
  if (w->traced) {
    const double n = static_cast<double>(w->ns.size());
    sim::Tracer* tr = dev_.tracer();
    tr->record(sim::TraceSpan{w->begin, sim_.now(), phys_node(), sim::kNicLane,
                              "board_notify", sim::Category::kNotify,
                              n * static_cast<double>(sizeof(Notification))});
    tr->bump("board_notifications", n);
    tr->bump("notifications_delivered", n);
  }
}

void NodeRuntime::board_deposit(int local_rank,
                                std::span<const Notification> ns) {
  RankState& rs = rank(local_rank);
  for (const Notification& n : ns) rs.board.deposit(n);
  rs.notif_q.nonempty_trigger().notify_all();
}

sim::Proc<void> NodeRuntime::complete_flush(RankState& rs, std::uint64_t id,
                                            std::int32_t win_device_id) {
  if (id == 0) co_return;  // operation outside flush tracking
  if (sim::Tracer* tr = dev_.tracer(); tr && tr->enabled()) {
    // Mirrors the +1 in the device library's issue path (issue_rma).
    tr->counter_add(sim_.now(), phys_node(), "inflight_rma", -1.0);
  }
  const bool advanced = rs.flush.complete(id);
  if (advanced) rs.host_flush_trig.notify_all();

  // One posted write carries both the per-window completion count (the
  // paper's window flush) and, when it advanced, the contiguous frontier.
  RankState* rsp = &rs;
  const std::uint64_t frontier = advanced ? rs.flush.value : 0;
  auto apply = [rsp, win_device_id, frontier] {
    if (win_device_id >= 0) {
      ++rsp->win_completed[static_cast<std::size_t>(win_device_id)];
    }
    if (frontier > rsp->flush_done) rsp->flush_done = frontier;
    rsp->flush_trig.notify_all();
  };
  if (is_host_rank(rs.local_rank)) {
    apply();  // host-rank state: no PCIe crossing
    co_return;
  }
  co_await pcie_.post_write(pcie::Dir::kHostToDevice, 2 * sizeof(std::uint64_t),
                            std::move(apply));
}

sim::Proc<void> NodeRuntime::log_loop() {
  for (;;) {
    LogEntry e = co_await log_q_->dequeue();
    co_await dispatch_cost(/*host_path=*/true);
    log_lines_.push_back("rank " + std::to_string(e.rank) + ": " +
                         std::string(e.text) + " " + std::to_string(e.value));
  }
}

}  // namespace dcuda::rt
