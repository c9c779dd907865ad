#include "sim/invariants.h"

#include <sstream>

namespace dcuda::sim {

void InvariantObserver::violation(std::string what) {
  if (violations_.size() < kMaxViolations) violations_.push_back(std::move(what));
}

void InvariantObserver::fabric_delivered(int src, int dst, std::uint64_t wire_seq) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  std::uint64_t& last = fabric_seq_[{src, dst}];
  if (wire_seq != last + 1) {
    std::ostringstream os;
    os << "fabric non-overtaking violated: link " << src << "->" << dst
       << " delivered wire_seq " << wire_seq << " after " << last;
    violation(os.str());
  }
  if (wire_seq > last) last = wire_seq;
}

void InvariantObserver::route_selected(int src, int dst,
                                       const std::vector<int>& switches) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  for (std::size_t i = 0; i < switches.size(); ++i) {
    for (std::size_t j = i + 1; j < switches.size(); ++j) {
      if (switches[i] == switches[j]) {
        std::ostringstream os;
        os << "routing loop detected: route " << src << "->" << dst
           << " visits switch " << switches[i] << " twice (hops " << i
           << " and " << j << " of " << switches.size() << ")";
        violation(os.str());
        return;
      }
    }
  }
}

void InvariantObserver::link_transmission(int link, double start, double end) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  if (end < start) {
    std::ostringstream os;
    os << "link capacity conservation violated: link " << link
       << " transmission ends (" << end << ") before it starts (" << start << ")";
    violation(os.str());
    return;
  }
  double& busy = link_busy_[link];
  // Strict serialization up to fp rounding: a transmission may begin the
  // instant the previous one ends, never before.
  if (start < busy - 1e-12) {
    std::ostringstream os;
    os << "link capacity conservation violated: link " << link
       << " transmission starts at " << start
       << " while the link is busy until " << busy;
    violation(os.str());
  }
  if (end > busy) busy = end;
}

void InvariantObserver::fabric_packet_sent(int src, int dst, std::uint64_t seq,
                                           bool retransmit, int rail) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  LinkRecovery& lr = link_recovery_[{src, dst, rail}];
  if (!retransmit) {
    if (seq != lr.originals + 1) {
      std::ostringstream os;
      os << "fabric sequence assignment violated: link " << src << "->" << dst
         << " rail " << rail << " transmitted fresh seq " << seq << " after "
         << lr.originals << " originals";
      violation(os.str());
    }
    if (seq > lr.originals) lr.originals = seq;
    return;
  }
  ++lr.retransmits;
  if (seq == 0 || seq > lr.originals) {
    std::ostringstream os;
    os << "fabric retransmit of never-sent packet: link " << src << "->" << dst
       << " rail " << rail << " retransmitted seq " << seq << " but only "
       << lr.originals << " originals were sent";
    violation(os.str());
  }
}

void InvariantObserver::fabric_packet_dropped(int src, int dst,
                                              std::uint64_t seq, int rail) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  LinkRecovery& lr = link_recovery_[{src, dst, rail}];
  ++lr.dropped;
  if (lr.dropped > lr.originals + lr.retransmits) {
    std::ostringstream os;
    os << "fabric loss accounting violated: link " << src << "->" << dst
       << " rail " << rail << " recorded " << lr.dropped << " losses over "
       << lr.originals + lr.retransmits << " transmissions (seq " << seq << ")";
    violation(os.str());
  }
}

void InvariantObserver::fabric_packet_accepted(int src, int dst,
                                               std::uint64_t seq, int rail) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  LinkRecovery& lr = link_recovery_[{src, dst, rail}];
  if (seq <= lr.last_accepted) {
    std::ostringstream os;
    os << "at-most-once delivery violated: link " << src << "->" << dst
       << " rail " << rail << " accepted seq " << seq
       << " again (already accepted up to " << lr.last_accepted << ")";
    violation(os.str());
    return;
  }
  if (seq != lr.last_accepted + 1) {
    std::ostringstream os;
    os << "lossy-fabric in-order delivery violated: link " << src << "->" << dst
       << " rail " << rail << " accepted seq " << seq << " after "
       << lr.last_accepted;
    violation(os.str());
  }
  if (seq > lr.originals) {
    std::ostringstream os;
    os << "fabric accepted packet that was never sent: link " << src << "->"
       << dst << " rail " << rail << " seq " << seq << " with only "
       << lr.originals << " originals transmitted";
    violation(os.str());
  }
  lr.last_accepted = seq;
  ++lr.accepted;
}

void InvariantObserver::queue_credit(std::uint64_t send_count,
                                     std::uint64_t recv_count, int capacity) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  if (recv_count > send_count ||
      send_count - recv_count > static_cast<std::uint64_t>(capacity)) {
    std::ostringstream os;
    os << "queue credit accounting violated: send_count=" << send_count
       << " recv_count=" << recv_count << " capacity=" << capacity;
    violation(os.str());
  }
}

void InvariantObserver::notify_sent() {
  std::lock_guard<std::mutex> lock(*mu_);
  ++sent_;
}

void InvariantObserver::data_put_issued(int origin_rank, int target_rank) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++conn_data_[{origin_rank, target_rank}].issued;
}

void InvariantObserver::data_put_landed(int origin_rank, int target_rank) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  ConnData& cd = conn_data_[{origin_rank, target_rank}];
  ++cd.landed;
  if (cd.landed > cd.issued) {
    std::ostringstream os;
    os << "data put landed without issue: origin=" << origin_rank
       << " target=" << target_rank << " landed=" << cd.landed
       << " issued=" << cd.issued;
    violation(os.str());
  }
}

void InvariantObserver::notify_put_ordered(int origin_rank, int target_rank,
                                           std::int32_t win_global_id,
                                           std::uint64_t bytes, int tag) {
  std::lock_guard<std::mutex> lock(*mu_);
  const std::uint64_t mark = conn_data_[{origin_rank, target_rank}].issued;
  put_order_[PutKey{origin_rank, target_rank, win_global_id}].push_back(
      PendingNotify{tag, bytes, mark});
}

void InvariantObserver::notify_put_delivered(int origin_rank, int target_rank,
                                             std::int32_t win_global_id,
                                             std::uint64_t bytes, int tag) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  auto it = put_order_.find(PutKey{origin_rank, target_rank, win_global_id});
  if (it == put_order_.end() || it->second.empty()) {
    std::ostringstream os;
    os << "notified put delivered without matching issue: origin=" << origin_rank
       << " target=" << target_rank << " win=" << win_global_id
       << " bytes=" << bytes << " tag=" << tag;
    violation(os.str());
    return;
  }
  const PendingNotify expected = it->second.front();
  it->second.pop_front();
  if (expected.tag != tag) {
    std::ostringstream os;
    os << "notified put overtaking: origin=" << origin_rank
       << " target=" << target_rank << " win=" << win_global_id
       << " delivered tag " << tag << " (" << bytes << " B) while tag "
       << expected.tag << " (" << expected.bytes << " B) was issued first";
    violation(os.str());
    return;
  }
  const ConnData& cd = conn_data_[{origin_rank, target_rank}];
  if (cd.landed < expected.data_mark) {
    std::ostringstream os;
    os << "notification overtook data: origin=" << origin_rank
       << " target=" << target_rank << " win=" << win_global_id << " tag="
       << tag << " delivered while " << expected.data_mark - cd.landed
       << " of " << expected.data_mark
       << " preceding data puts had not landed";
    violation(os.str());
  }
}

void InvariantObserver::eager_batch_flushed(int origin_node, int target_node,
                                            std::uint64_t batch_seq, int records) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++eager_flushed_;
  eager_batches_[{origin_node, target_node}].push_back({batch_seq, records});
}

void InvariantObserver::eager_batch_delivered(int origin_node, int target_node,
                                              std::uint64_t batch_seq, int records) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  ++eager_delivered_;
  auto it = eager_batches_.find({origin_node, target_node});
  if (it == eager_batches_.end() || it->second.empty()) {
    std::ostringstream os;
    os << "eager batch delivered without flush: " << origin_node << "->"
       << target_node << " seq " << batch_seq;
    violation(os.str());
    return;
  }
  const auto [expected_seq, expected_records] = it->second.front();
  it->second.pop_front();
  if (expected_seq != batch_seq) {
    std::ostringstream os;
    os << "eager batch overtaking: " << origin_node << "->" << target_node
       << " delivered seq " << batch_seq << " while seq " << expected_seq
       << " was flushed first";
    violation(os.str());
  } else if (expected_records != records) {
    std::ostringstream os;
    os << "eager batch record count mismatch: " << origin_node << "->"
       << target_node << " seq " << batch_seq << " delivered " << records
       << " records, flushed " << expected_records;
    violation(os.str());
  }
}

void InvariantObserver::notification_delivered(bool via_board) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++delivered_;
  if (via_board) ++board_delivered_;
}

void InvariantObserver::notification_matched() {
  std::lock_guard<std::mutex> lock(*mu_);
  ++matched_;
  ++checks_;
  if (matched_ > delivered_) {
    std::ostringstream os;
    os << "notification matched before delivery: matched=" << matched_
       << " delivered=" << delivered_;
    violation(os.str());
  }
}

void InvariantObserver::window_created(std::int32_t win_global_id) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++window_live_[win_global_id];
  window_seen_[win_global_id] = true;
}

void InvariantObserver::window_accessed(std::int32_t win_global_id) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  auto it = window_live_.find(win_global_id);
  if (it == window_live_.end() || it->second <= 0) {
    std::ostringstream os;
    os << "window lifecycle violated: access to window " << win_global_id
       << (window_seen_.count(win_global_id) != 0 ? " after win_free"
                                                  : " before win_create");
    violation(os.str());
  }
}

void InvariantObserver::window_freed(std::int32_t win_global_id) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  auto it = window_live_.find(win_global_id);
  if (it == window_live_.end() || it->second <= 0) {
    std::ostringstream os;
    os << "window lifecycle violated: win_free of window " << win_global_id
       << " that is not live";
    violation(os.str());
    return;
  }
  --it->second;
}

void InvariantObserver::barrier_enter(int comm_key, int rank, int participants) {
  std::lock_guard<std::mutex> lock(*mu_);
  BarrierDomain& d = barriers_[comm_key];
  if (d.participants == 0) d.participants = participants;
  if (d.participants != participants) {
    std::ostringstream os;
    os << "barrier domain " << comm_key << " entered with participants="
       << participants << " but was established with " << d.participants;
    violation(os.str());
  }
  ++d.enters[rank];
}

void InvariantObserver::barrier_leave(int comm_key, int rank) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  BarrierDomain& d = barriers_[comm_key];
  const std::uint64_t round = ++d.exits[rank];
  if (round > d.enters[rank]) {
    std::ostringstream os;
    os << "barrier round agreement violated: rank " << rank << " exited round "
       << round << " of domain " << comm_key << " without entering it";
    violation(os.str());
    return;
  }
  int entered = 0;
  for (const auto& [r, n] : d.enters) {
    if (n >= round) ++entered;
  }
  if (entered < d.participants) {
    std::ostringstream os;
    os << "barrier round agreement violated: rank " << rank << " exited round "
       << round << " of domain " << comm_key << " while only " << entered
       << " of " << d.participants << " participants entered it";
    violation(os.str());
  }
}

void InvariantObserver::cluster_nodes(int total) {
  std::lock_guard<std::mutex> lock(*mu_);
  cluster_total_nodes_ = total;
}

void InvariantObserver::job_submitted(int job_id) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  JobTrack& j = jobs_[job_id];
  if (j.submitted) {
    std::ostringstream os;
    os << "job lifecycle violated: job " << job_id << " submitted twice";
    violation(os.str());
  }
  j.submitted = true;
}

void InvariantObserver::job_started(int job_id, const std::vector<int>& nodes) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  JobTrack& j = jobs_[job_id];
  if (!j.submitted) {
    std::ostringstream os;
    os << "job lifecycle violated: job " << job_id << " started without submit";
    violation(os.str());
  }
  if (j.started) {
    std::ostringstream os;
    os << "job lifecycle violated: job " << job_id << " started twice";
    violation(os.str());
    return;
  }
  j.started = true;
  if (nodes.empty()) {
    std::ostringstream os;
    os << "job allocation violated: job " << job_id << " started on zero nodes";
    violation(os.str());
  }
  for (int n : nodes) {
    if (cluster_total_nodes_ > 0 && (n < 0 || n >= cluster_total_nodes_)) {
      std::ostringstream os;
      os << "job allocation violated: job " << job_id << " allocated node " << n
         << " outside the " << cluster_total_nodes_ << "-node cluster";
      violation(os.str());
      continue;
    }
    auto [it, inserted] = node_owner_.emplace(n, job_id);
    if (!inserted) {
      std::ostringstream os;
      os << "overlapping node allocation: job " << job_id << " allocated node "
         << n;
      if (it->second == job_id) {
        os << " twice";
      } else {
        os << " held by job " << it->second;
      }
      violation(os.str());
      continue;
    }
    j.nodes.push_back(n);
  }
}

void InvariantObserver::job_completed(int job_id) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++checks_;
  JobTrack& j = jobs_[job_id];
  if (!j.started) {
    std::ostringstream os;
    os << "job lifecycle violated: job " << job_id
       << " completed without starting";
    violation(os.str());
  }
  if (j.completed) {
    std::ostringstream os;
    os << "job lifecycle violated: job " << job_id << " completed twice";
    violation(os.str());
    return;
  }
  j.completed = true;
  // Node conservation: completion frees exactly the nodes the start claimed.
  for (int n : j.nodes) {
    auto it = node_owner_.find(n);
    if (it == node_owner_.end() || it->second != job_id) {
      std::ostringstream os;
      os << "node conservation violated: job " << job_id << " released node "
         << n << " it no longer owns";
      violation(os.str());
      continue;
    }
    node_owner_.erase(it);
  }
  j.nodes.clear();
}

void InvariantObserver::finalize() {
  std::lock_guard<std::mutex> lock(*mu_);
  if (finalized_) return;
  finalized_ = true;
  if (delivered_ != sent_) {
    std::ostringstream os;
    os << "notification conservation violated: " << sent_
       << " notified operations issued but " << delivered_
       << " notifications delivered";
    violation(os.str());
  }
  if (matched_ > delivered_) {
    std::ostringstream os;
    os << "notification conservation violated: " << matched_
       << " notifications matched but only " << delivered_ << " delivered";
    violation(os.str());
  }
  for (const auto& [link, lr] : link_recovery_) {
    if (lr.accepted != lr.originals) {
      std::ostringstream os;
      os << "lossy-fabric conservation violated: link " << std::get<0>(link)
         << "->" << std::get<1>(link) << " rail " << std::get<2>(link)
         << " sent " << lr.originals << " originals but " << lr.accepted
         << " were accepted";
      violation(os.str());
    }
    if (lr.dropped > 0 && lr.retransmits == 0 && lr.accepted == lr.originals) {
      std::ostringstream os;
      os << "retransmit accounting violated: link " << std::get<0>(link)
         << "->" << std::get<1>(link) << " rail " << std::get<2>(link)
         << " lost " << lr.dropped
         << " transmissions yet recovered without a single retransmit";
      violation(os.str());
    }
  }
  for (const auto& [key, pending] : put_order_) {
    if (!pending.empty()) {
      std::ostringstream os;
      os << "notified put never delivered: origin=" << std::get<0>(key)
         << " target=" << std::get<1>(key) << " win=" << std::get<2>(key)
         << " (" << pending.size() << " outstanding, first tag "
         << pending.front().tag << ")";
      violation(os.str());
    }
  }
  for (const auto& [conn, cd] : conn_data_) {
    if (cd.landed != cd.issued) {
      std::ostringstream os;
      os << "data put conservation violated: origin=" << conn.first
         << " target=" << conn.second << " issued=" << cd.issued
         << " landed=" << cd.landed;
      violation(os.str());
    }
  }
  if (eager_delivered_ != eager_flushed_) {
    std::ostringstream os;
    os << "eager batch conservation violated: " << eager_flushed_
       << " batches flushed but " << eager_delivered_ << " delivered";
    violation(os.str());
  }
  for (const auto& [comm, d] : barriers_) {
    for (const auto& [rank, n] : d.enters) {
      const auto it = d.exits.find(rank);
      const std::uint64_t exits = it == d.exits.end() ? 0 : it->second;
      if (exits != n) {
        std::ostringstream os;
        os << "barrier domain " << comm << ": rank " << rank << " entered " << n
           << " rounds but exited " << exits;
        violation(os.str());
      }
    }
  }
  for (const auto& [id, j] : jobs_) {
    if (j.submitted && !j.completed) {
      std::ostringstream os;
      os << "lost job: job " << id << " was submitted but never "
         << (j.started ? "completed" : "started");
      violation(os.str());
    }
  }
  if (!node_owner_.empty()) {
    std::ostringstream os;
    os << "node conservation violated: " << node_owner_.size()
       << " nodes still allocated at end of run (first: node "
       << node_owner_.begin()->first << " held by job "
       << node_owner_.begin()->second << ")";
    violation(os.str());
  }
}

std::string InvariantObserver::report() const {
  std::lock_guard<std::mutex> lock(*mu_);
  std::ostringstream os;
  os << "invariant checks: " << checks_ << ", notifications sent/delivered/matched: "
     << sent_ << "/" << delivered_ << "/" << matched_ << "\n";
  for (const auto& v : violations_) os << "  VIOLATION: " << v << "\n";
  return os.str();
}

}  // namespace dcuda::sim
