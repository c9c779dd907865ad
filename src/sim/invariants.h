#pragma once

// Invariant oracles for schedule fuzzing (docs/TESTING.md).
//
// An InvariantObserver is an out-of-band protocol checker: components report
// state transitions through hooks (guarded by `sim.invariant_observer() !=
// nullptr`, so normal runs pay one pointer test), and the observer validates
// the ordering/conservation properties the paper's runtime guarantees:
//
//  * fabric non-overtaking — wire deliveries between a fixed (src, dst)
//    node pair carry strictly increasing sequence numbers (the FIFO
//    property MPI matching relies on; net/fabric.h).
//  * queue credit accounting — a circular queue never holds more entries
//    than its capacity and never dequeues more than was sent (§III-C's
//    single-transaction protocol depends on the credit bound).
//  * notification conservation — every notified RMA operation delivers
//    exactly one notification, and every match consumed a delivered one.
//  * notified-put sequence non-overtaking — notifications for notified
//    puts of the same (origin rank, target rank, window) are delivered in
//    issue order regardless of size (§III-B; put_2d_notify relies on
//    this: row puts, only the last carries the notification). The runtime
//    reports only the puts it promises ordering for: those at MPI-eager
//    sizes (true MPI-rendezvous transfers promise only completion order).
//  * data-before-notification — every remote put (notified or not) is a
//    tracked data transfer; a notification must not commit while any
//    same-(origin rank, target rank) data put issued at or before it has
//    not landed. This catches a notification racing ahead of payloads
//    still in flight on the other protocol path (e.g. particles: large
//    cell puts followed by a small count put_notify).
//  * window lifecycle — no RMA access to a window before its collective
//    creation completed or after its free began.
//  * barrier round agreement — no rank exits barrier round N of a
//    communicator before all participants entered round N.
//
// All tracking is out of band: no wire struct grows (simulated transaction
// sizes — and therefore all golden timings — depend on sizeof of the
// protocol structs).
//
// Violations are recorded, not thrown: an oracle failure inside an event
// callback must not unwind through the engine. The fuzz harness checks
// `violations()` after the run (and `finalize()` for the end-of-run
// conservation checks).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace dcuda::sim {

class InvariantObserver {
 public:
  // -- Hooks (called by instrumented components) -----------------------

  // net/fabric.cc, at delivery into the destination mailbox. On the
  // topology path the sequence is the per-(src, dst) mux sequence released
  // by the rail resequencer, so cross-rail reordering that escapes the mux
  // (mutation: TopoConfig::resequence = false) fires this oracle.
  void fabric_delivered(int src, int dst, std::uint64_t wire_seq);

  // Topology oracles (net/fabric.cc multi-hop path, docs/TOPOLOGY.md):
  //  * no-routing-loop — a selected route never visits a switch twice.
  //  * link-capacity conservation — transmissions on one directed link must
  //    not overlap in time (a link serializes at its configured bandwidth;
  //    mutation: TopoConfig::account_capacity = false over-commits it).
  void route_selected(int src, int dst, const std::vector<int>& switches);
  void link_transmission(int link, double start, double end);

  // Lossy-fabric recovery oracles (net/fabric.cc go-back-N; the hooks fire
  // only while fault injection is armed, docs/TESTING.md "Loss battery"):
  //  * at-most-once delivery — an accepted connection sequence is strictly
  //    one past the previous accept (a repeat means duplicate suppression
  //    failed; a skip means the in-order filter failed).
  //  * retransmit accounting — originals carry strictly consecutive fresh
  //    sequences, retransmissions only re-send already-assigned ones, and
  //    finalize() checks loss conservation per link: every original was
  //    eventually accepted, and any recorded loss implies at least one
  //    retransmission happened to repair it.
  // `rail` keys the connection on multi-rail fabrics: go-back-N runs one
  // independent sequence space per (src, dst, rail) lane (net/rail.h).
  void fabric_packet_sent(int src, int dst, std::uint64_t seq, bool retransmit,
                          int rail = 0);
  void fabric_packet_dropped(int src, int dst, std::uint64_t seq, int rail = 0);
  void fabric_packet_accepted(int src, int dst, std::uint64_t seq, int rail = 0);

  // queue/circular_queue.h, after every send/recv counter change.
  void queue_credit(std::uint64_t send_count, std::uint64_t recv_count,
                    int capacity);

  // dcuda.cc issue_rma: a notified operation was issued (exactly one
  // notification must eventually be delivered for it).
  void notify_sent();

  // A remote put's payload entering its delivery channel / landing in the
  // target window (runtime handle_put / handle_meta).
  // Covers notified AND non-notified puts: the pair feeds the
  // data-before-notification check, and finalize() verifies every issued
  // data put landed.
  void data_put_issued(int origin_rank, int target_rank);
  void data_put_landed(int origin_rank, int target_rank);

  // Ordered notified put entering its delivery channel (runtime handle_put,
  // in per-rank command order; call data_put_issued for the same put
  // first). Pairs with notify_put_delivered.
  void notify_put_ordered(int origin_rank, int target_rank,
                          std::int32_t win_global_id, std::uint64_t bytes,
                          int tag);

  // A notified put's notification handed to the target's notification
  // queue. Checks FIFO against notify_put_ordered for the same (origin,
  // target, window) key across sizes, and that every data put issued at or
  // before this one (same origin/target ranks) already landed.
  void notify_put_delivered(int origin_rank, int target_rank,
                            std::int32_t win_global_id, std::uint64_t bytes,
                            int tag);

  // Any notification delivered. `via_board` distinguishes the device-resident
  // notification board (RuntimeBackend::kDeviceInitiated NIC→device posted
  // writes and the device-local delivery path) from the host→device
  // notification queue. Conservation — every notify_sent delivered exactly
  // once, every match consuming a delivery — holds over the sum; the
  // per-channel counts let backend tests assert which path carried them
  // (host-loop runs must report zero board deliveries for remote puts).
  void notification_delivered(bool via_board = false);

  // dcuda.cc wait/test_notifications: one pending notification matched.
  void notification_matched();

  // runtime window lifecycle (global window ids; counted per node since
  // every node registers the collective window).
  void window_created(std::int32_t win_global_id);
  void window_accessed(std::int32_t win_global_id);
  void window_freed(std::int32_t win_global_id);

  // dcuda.cc barrier: device-side entry/leave. comm_key identifies the
  // barrier domain (see schedule_fuzz_test: world = -1, device comm =
  // node id), participants its size.
  void barrier_enter(int comm_key, int rank, int participants);
  void barrier_leave(int comm_key, int rank);

  // -- Cluster gang-scheduler oracles (cluster/scheduler.cc, docs/CLUSTER.md)
  //
  // cluster_nodes arms the checks with the machine size. Then per job:
  // submitted exactly once, started at most once with a node set that is
  // in bounds, duplicate-free and disjoint from every running job's nodes
  // (no overlapping allocations), completed only after starting (frees its
  // nodes — conservation). finalize() adds: no lost jobs (every submitted
  // job completed) and zero nodes still allocated.
  void cluster_nodes(int total);
  void job_submitted(int job_id);
  void job_started(int job_id, const std::vector<int>& nodes);
  void job_completed(int job_id);

  // -- Results ---------------------------------------------------------

  // End-of-run conservation checks; call after Simulation::run returned.
  void finalize();

  const std::vector<std::string>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }
  // Everything recorded, one line per violation (for failure reports).
  std::string report() const;

  std::uint64_t notifications_sent() const { return sent_; }
  std::uint64_t notifications_delivered() const { return delivered_; }
  std::uint64_t notifications_board_delivered() const { return board_delivered_; }
  std::uint64_t notifications_matched() const { return matched_; }
  std::uint64_t checks_performed() const { return checks_; }

 private:
  void violation(std::string what);

  static constexpr std::size_t kMaxViolations = 16;

  // Hooks may fire from any worker thread during parallel windows
  // (docs/PERF.md); one lock keeps the cross-shard tracking exact. Held by
  // shared_ptr so the observer stays copy- and move-assignable (the fuzz
  // self-tests re-assign observers between cases). Per-key state is only
  // ever touched from one shard, and the global counters are sums, so the
  // verdict does not depend on thread interleaving.
  std::shared_ptr<std::mutex> mu_ = std::make_shared<std::mutex>();

  // fabric: last wire_seq per (src, dst).
  std::map<std::pair<int, int>, std::uint64_t> fabric_seq_;

  // lossy fabric: per-(src, dst, rail) go-back-N recovery accounting.
  struct LinkRecovery {
    std::uint64_t originals = 0;      // fresh sequences transmitted
    std::uint64_t retransmits = 0;    // re-transmissions of assigned seqs
    std::uint64_t dropped = 0;        // transmissions lost on the wire
    std::uint64_t accepted = 0;       // in-order accepts at the receiver
    std::uint64_t last_accepted = 0;  // highest accepted sequence
  };
  std::map<std::tuple<int, int, int>, LinkRecovery> link_recovery_;

  // topology: busy-until frontier per directed interior link (capacity
  // conservation: a link's transmissions must not overlap).
  std::map<int, double> link_busy_;

  // notified puts: FIFO per (origin, target, window) — across sizes, so a
  // small put's notification overtaking a larger one's is caught.
  // Each entry remembers how many same-connection data puts were issued up
  // to and including it (the data-before-notification mark).
  using PutKey = std::tuple<int, int, std::int32_t>;
  struct PendingNotify {
    int tag = 0;
    std::uint64_t bytes = 0;     // diagnostic only, not part of the key
    std::uint64_t data_mark = 0;  // conn data_issued count at issue time
  };
  std::map<PutKey, std::deque<PendingNotify>> put_order_;

  // data puts: issued/landed counts per (origin rank, target rank).
  struct ConnData {
    std::uint64_t issued = 0;
    std::uint64_t landed = 0;
  };
  std::map<std::pair<int, int>, ConnData> conn_data_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t board_delivered_ = 0;  // subset of delivered_
  std::uint64_t matched_ = 0;
  std::uint64_t checks_ = 0;

  // windows: live registration count per global id (one per node), plus a
  // freed set to distinguish "never created" from "already freed".
  std::map<std::int32_t, int> window_live_;
  std::map<std::int32_t, bool> window_seen_;

  struct BarrierDomain {
    int participants = 0;
    std::map<int, std::uint64_t> enters;
    std::map<int, std::uint64_t> exits;
  };
  std::map<int, BarrierDomain> barriers_;

  // cluster scheduler: machine size, per-node owning job (allocation
  // overlap), per-job state machine.
  int cluster_total_nodes_ = 0;
  std::map<int, int> node_owner_;  // node -> running job id
  struct JobTrack {
    bool submitted = false;
    bool started = false;
    bool completed = false;
    std::vector<int> nodes;
  };
  std::map<int, JobTrack> jobs_;

  std::vector<std::string> violations_;
  bool finalized_ = false;
};

}  // namespace dcuda::sim
