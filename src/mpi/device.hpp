// The ADI-style device layer: one per rank.
//
// Implements the paper's §3.1 design: Eager protocol for small messages
// (copied through pre-pinned 2 KB buffers, IB send/recv), Rendezvous for
// large ones (RTS/CTS handshake, zero-copy RDMA write, FIN), one CQ for all
// connections of the process, and per-connection flow control supplied by
// flowctl::ConnectionFlow (§4's three schemes).
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "flowctl/flowctl.hpp"
#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "mpi/config.hpp"
#include "mpi/match.hpp"
#include "mpi/protocol.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/process.hpp"

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::obs {
class FlightRecorder;
class Profiler;
}

namespace mvflow::mpi {

class World;

/// Device-level counters (per rank), aggregated by the benches.
struct DeviceStats {
  std::uint64_t eager_sent = 0;
  std::uint64_t rndv_started = 0;
  std::uint64_t small_converted_to_rndv = 0;  ///< Credit famine conversions.
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t reg_cache_hits = 0;
  std::uint64_t reg_cache_misses = 0;
  std::size_t max_unexpected = 0;
  // ---- fault handling ----
  std::uint64_t error_completions = 0;   ///< CQEs with a failure status.
  std::uint64_t stale_completions = 0;   ///< CQEs from destroyed (replaced) QPs.
  std::uint64_t duplicate_wire_msgs = 0; ///< Replays already applied (seq dedup).
  std::uint64_t replayed_wire_msgs = 0;  ///< Unacked messages re-posted on reconnect.
  std::uint64_t endpoint_failures = 0;   ///< Connections declared dead.
  std::uint64_t reconnects = 0;          ///< Connections rebuilt after a QP error.
  std::uint64_t requests_failed = 0;     ///< Requests completed with error status.

  /// Enumerate every counter as (name, value) for a metrics sink.
  template <typename Fn>
  void visit(Fn&& f) const {
    f("eager_sent", static_cast<double>(eager_sent));
    f("rndv_started", static_cast<double>(rndv_started));
    f("small_converted_to_rndv", static_cast<double>(small_converted_to_rndv));
    f("payload_bytes_sent", static_cast<double>(payload_bytes_sent));
    f("reg_cache_hits", static_cast<double>(reg_cache_hits));
    f("reg_cache_misses", static_cast<double>(reg_cache_misses));
    f("max_unexpected", static_cast<double>(max_unexpected));
    f("error_completions", static_cast<double>(error_completions));
    f("stale_completions", static_cast<double>(stale_completions));
    f("duplicate_wire_msgs", static_cast<double>(duplicate_wire_msgs));
    f("replayed_wire_msgs", static_cast<double>(replayed_wire_msgs));
    f("endpoint_failures", static_cast<double>(endpoint_failures));
    f("reconnects", static_cast<double>(reconnects));
    f("requests_failed", static_cast<double>(requests_failed));
  }
};

class Device {
 public:
  Device(World& world, Rank me);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  ~Device();

  Rank rank() const noexcept { return me_; }
  int world_size() const;

  /// The world's engine: the clock a device reads and schedules on.
  sim::Engine& engine() const noexcept;

  /// Bind the rank's simulated process (set by World when the body starts).
  void bind_process(sim::Process& proc) { proc_ = &proc; }

  // ---- point-to-point ----
  RequestPtr isend(Rank dst, Tag tag, std::span<const std::byte> data,
                   SendMode mode = SendMode::standard);
  RequestPtr irecv(Rank src, Tag tag, std::span<std::byte> buffer);
  void wait(const RequestPtr& req);
  bool test(const RequestPtr& req);
  void progress();  ///< Non-blocking: drain the CQ, run protocol actions.

  // ---- setup (World / on-demand) ----
  /// Create this side's QP toward `peer` (not yet connected).
  ib::QueuePair& create_endpoint(Rank peer);
  /// Pre-post the initial credited pool + control reserve for `peer`.
  void activate_endpoint(Rank peer);
  bool has_endpoint(Rank peer) const {
    return peer >= 0 && static_cast<std::size_t>(peer) < peer_index_.size() &&
           peer_index_[static_cast<std::size_t>(peer)] >= 0;
  }
  std::size_t endpoint_count() const { return conn_.size(); }
  /// Bytes of per-connection state: one flat-table element (the Endpoint
  /// block) plus the 4-byte rank->slot index entry every configured rank
  /// costs whether or not it ever connects. Reported by bench_conn_scaling
  /// so state growth shows up in the perf trajectory.
  static std::size_t endpoint_state_bytes() noexcept;
  static constexpr std::size_t kIndexBytesPerRank = sizeof(std::int32_t);

  // ---- fault recovery (driven by World::recover_pair) ----
  /// Phase 1 of reconnecting to `peer`: drain the CQ, retire the errored
  /// QP (accumulating its stats) and create a fresh, unconnected one.
  void prepare_reconnect(Rank peer);
  /// Phase 2, after the fresh QPs are connected: repost the whole receive
  /// pool, replay unacknowledged wire messages, and reset credit state to
  /// `peer_posted` minus the credited replays in flight.
  void finish_reconnect(Rank peer, int peer_posted);

  // ---- introspection ----
  const DeviceStats& stats() const noexcept { return stats_; }
  const flowctl::ConnectionFlow& flow(Rank peer) const;
  /// Test-only mutable access — lets negative auditor tests plant a
  /// deliberate counter corruption. Never used by the protocol itself.
  flowctl::ConnectionFlow& debug_flow(Rank peer);

  /// One endpoint's state, flattened for the auditor and the watchdog
  /// (obs/audit.hpp, sim/watchdog.hpp). Everything is copied out so the
  /// caller can evaluate invariants without re-entering the device.
  struct EndpointProbe {
    bool active = false;
    bool failed = false;
    bool recovering = false;
    bool famine_rts_inflight = false;
    std::size_t backlog_depth = 0;
    std::uint64_t tx_seq = 0;
    std::uint64_t rx_seq = 0;
    std::size_t slots = 0;          ///< Receive pool size (incl. retired).
    std::size_t retired_slots = 0;  ///< Slots removed by dynamic decay.
    std::size_t control_reserve = 0;
    // Live QP recv-WQE ledger (zeroed while a reconnect is rebuilding it).
    std::uint64_t wqes_posted = 0;
    std::uint64_t wqes_completed = 0;
    std::uint64_t wqes_flushed = 0;
    std::size_t recvq_depth = 0;
    bool assembly_holds_wqe = false;
    // Timer state for the watchdog's wait-for dump.
    bool retx_armed = false;
    bool rnr_waiting = false;
  };
  EndpointProbe probe(Rank peer) const;
  /// Live QP counters plus everything accumulated from QPs retired by
  /// recovery (so retransmit/NAK counts survive a reconnect).
  ib::QpStats qp_stats(Rank peer) const;
  bool endpoint_failed(Rank peer) const { return ep_at(peer).failed; }
  bool endpoint_recovering(Rank peer) const { return ep_at(peer).recovering; }
  ib::QueuePair& endpoint_qp(Rank peer) { return *ep_at(peer).qp; }
  /// Live peers in ascending rank order (deterministic iteration for the
  /// auditor, the watchdog, and serialization).
  std::vector<Rank> peers() const;

  /// Incremental aggregates over every connection this device owns
  /// (DESIGN.md §17): flow-control counters and QP reliability counters
  /// (live + retired-by-reconnect), mirrored at the point of change, so
  /// world-level stat totals are O(ranks) instead of O(connections).
  const flowctl::Counters& flow_totals() const noexcept { return flow_agg_; }
  const ib::QpStats& qp_totals() const noexcept { return qp_agg_; }

  /// Apply a flow-control tuning delta to every live connection (the
  /// checkpoint-fork sweep's branch point — DESIGN.md §13).
  void retune(const flowctl::TuneDelta& d);

  /// Serialize the rank's complete device state for the snapshot restore
  /// audit: counters, tag-matching queues, every endpoint (flow control,
  /// QP, wire sequencing, backlog, receive pool shape), and the
  /// outstanding-operation tables (tx contexts, rendezvous ops, pin cache).
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  struct Arena {
    std::unique_ptr<std::vector<std::byte>> storage;
    ib::MemoryRegionHandle mr;
  };
  struct RecvSlot {
    std::byte* addr = nullptr;
    std::uint32_t lkey = 0;
  };
  struct BacklogEntry {
    WireHeader hdr;
    std::vector<std::byte> payload;  // eager payload (empty for RTS)
    RequestPtr eager_req;            // completes at dispatch (eager only)
    sim::TimePoint enqueued_at{0};   // backlog-residency latency stamp
    /// Profiler: the connection's cumulative zero-credit time at enqueue;
    /// the dispatch-time delta is this message's zero-credit overlap.
    std::int64_t prof_zero_base = 0;
  };
  struct Endpoint {
    Rank peer = -1;
    std::shared_ptr<ib::QueuePair> qp;
    flowctl::ConnectionFlow flow;
    std::deque<BacklogEntry> backlog;
    std::vector<Arena> recv_arenas;
    std::vector<RecvSlot> slots;  // index == recv wr_id
    /// Slots retired by dynamic-decay (take_decay_slot): their buffers are
    /// never reposted — not even by a reconnect, which would silently grow
    /// the pool past current_posted and break credit conservation.
    std::vector<std::uint8_t> slot_retired;
    std::size_t retired_count = 0;
    bool active = false;
    /// A famine (optimistic) RTS is outstanding: its CTS has not arrived
    /// yet. Throttles optimistic sends to one at a time per connection.
    bool famine_rts_inflight = false;
    /// The connection is dead (QP error, auto_reconnect off): every
    /// outstanding request failed and new ones fail fast.
    bool failed = false;
    /// A QP error occurred and a reconnect is scheduled / in progress.
    bool recovering = false;
    /// Per-connection wire sequencing: next seq to stamp on an outgoing
    /// message / next seq expected inbound. Reconnect replays duplicate
    /// the tail, so the receiver applies each seq exactly once.
    std::uint64_t tx_seq = 0;
    std::uint64_t rx_seq = 0;
    /// Stats accumulated from QPs destroyed by recovery.
    ib::QpStats retired_qp;
    // ---- profiler state (obs::Profiler; written only while armed) ----
    // Zero-credit episode ledger: an episode opens when the credit pool
    // empties and closes when an inbound grant refills it. prof_cum_zero
    // accumulates closed episodes, so cumulative zero time at any instant
    // is prof_cum_zero plus the open episode's age — per-message overlap
    // is a difference of two such readings (see obs/prof.hpp).
    sim::TimePoint prof_zero_since{-1};  ///< open episode start; -1 = none
    std::int64_t prof_cum_zero = 0;      ///< closed-episode zero-credit ns
    std::uint64_t prof_grant_seq = ~0ull;  ///< inbound seq of last releasing grant
    bool prof_grant_ecm = false;  ///< that grant was an explicit credit message
    /// Scratch handed from the backlog dispatchers to post_wire (the only
    /// place that knows the final wire seq): original post time and
    /// zero-credit overlap of the message about to be posted.
    sim::TimePoint prof_next_post{-1};
    sim::TimePoint prof_next_disp{-1};
    std::int64_t prof_next_zero = 0;
    explicit Endpoint(const flowctl::Config& cfg) : flow(cfg) {}
  };
  struct TxCtx {
    bool is_rdma_write = false;
    std::size_t bounce_slot = 0;   // !is_rdma_write
    std::uint64_t rndv_id = 0;     // is_rdma_write
    Rank peer = -1;
    ib::SendWr wr;  ///< Kept so recovery can replay the post verbatim.
  };
  struct SendRndv {
    Rank dst = -1;
    std::span<const std::byte> data;
    RequestPtr req;
    ib::MemoryRegionHandle mr;
    std::uint64_t rreq = 0;  // receiver's op id, learned from the CTS
    /// For famine-converted eager messages: the payload copy the span
    /// points into (the user's send already "completed" into the backlog).
    /// Registered outside the pin cache; erase_send_rndv deregisters it.
    std::vector<std::byte> owned_payload;
  };
  using SendRndvMap = std::map<std::uint64_t, SendRndv>;
  struct RecvRndv {
    Rank src = -1;
    Tag tag = 0;
    std::byte* buffer = nullptr;
    std::uint32_t bytes = 0;
    RequestPtr req;
    ib::MemoryRegionHandle mr;
  };
  struct CacheEntry {
    std::byte* addr = nullptr;
    std::size_t len = 0;
    ib::MemoryRegionHandle mr;
  };

  Endpoint& ensure_endpoint(Rank peer);

  /// O(1) rank → endpoint lookup; nullptr when no endpoint exists.
  Endpoint* find_endpoint(Rank peer) const noexcept {
    if (peer < 0 || static_cast<std::size_t>(peer) >= peer_index_.size()) {
      return nullptr;
    }
    const std::int32_t slot = peer_index_[static_cast<std::size_t>(peer)];
    return slot < 0 ? nullptr : conn_[static_cast<std::size_t>(slot)].get();
  }
  /// As find_endpoint, but the endpoint must exist.
  Endpoint& ep_at(Rank peer) const;

  void handle_completion(const ib::Completion& wc);
  void handle_error_completion(Endpoint& ep, const ib::Completion& wc);
  /// Complete a request with error status (idempotent, null-safe).
  void fail_request(const RequestPtr& req);
  /// Declare the connection dead: fail every request bound to it.
  void fail_endpoint(Endpoint& ep);
  /// Schedule World::recover_pair after the configured reconnect delay.
  void begin_recovery(Endpoint& ep);
  void handle_inbound(Endpoint& ep, std::uint64_t slot_idx,
                      std::uint32_t byte_len, std::uint64_t cause);
  void deliver_eager(Endpoint& ep, const WireHeader& hdr,
                     const std::byte* payload, sim::TimePoint arrival,
                     std::uint64_t cause);
  void handle_rts(Endpoint& ep, const WireHeader& hdr, sim::TimePoint arrival,
                  std::uint64_t cause);
  void handle_cts(Endpoint& ep, const WireHeader& hdr);
  void handle_fin(Endpoint& ep, const WireHeader& hdr);
  void begin_recv_rndv(Rank src, Tag tag, std::uint64_t sreq,
                       std::uint32_t bytes, std::byte* buffer,
                       RequestPtr req);

  /// Send a credited message now or enqueue it in the backlog.
  void send_credited(Endpoint& ep, WireHeader hdr,
                     std::span<const std::byte> payload, RequestPtr eager_req);
  void drain_backlog(Endpoint& ep);
  void send_ecm(Endpoint& ep);
  /// Fill piggyback fields and post the wire message via a bounce buffer.
  void post_wire(Endpoint& ep, WireHeader hdr,
                 std::span<const std::byte> payload);

  /// Start a rendezvous send (fresh or converted-from-eager).
  void start_send_rndv(Endpoint& ep, Tag tag, std::span<const std::byte> data,
                       RequestPtr req);

  /// Under credit famine, dispatch the backlog head as an optimistic
  /// (uncredited) rendezvous start so the handshake brings credits back.
  void dispatch_famine_head(Endpoint& ep);

  /// The fabric's observers, reached through this rank's HCA; each site
  /// tests enabled() first, one predictable branch while disarmed.
  obs::FlightRecorder& recorder() const noexcept;
  obs::Profiler& profiler() const noexcept;

  // ---- profiler hooks (all gated on profiler().enabled()) ----
  /// Cumulative zero-credit ns on `ep` as of `now` (closed episodes plus
  /// the open one).
  static std::int64_t prof_zero_total(const Endpoint& ep, sim::TimePoint now);
  /// Credit-pool transition tracking: open an episode when the pool just
  /// emptied, close it (recording the releasing grant) when it refills.
  void prof_note_credits(Endpoint& ep);
  void prof_note_grant(Endpoint& ep, const WireHeader& hdr);
  /// Emit the receiver-side checkpoint record for one wire message.
  void prof_record_recv(Rank src, std::uint64_t seq, std::uint8_t kind,
                        std::uint8_t flags, std::uint32_t bytes,
                        sim::TimePoint arrival, sim::TimePoint matched,
                        std::uint64_t cause);

  std::size_t acquire_bounce_slot();
  void release_bounce_slot(std::size_t idx);
  std::byte* bounce_addr(std::size_t idx);
  std::uint32_t bounce_lkey(std::size_t idx);

  void grow_recv_slots(Endpoint& ep, int count);
  void post_slot(Endpoint& ep, std::size_t slot_idx);

  /// Pin-down cache: returns a registration covering [addr, addr+len).
  ib::MemoryRegionHandle pin(std::byte* addr, std::size_t len);
  /// Register [addr, addr+len) uncached, charging reg_base + reg_per_page
  /// per page.
  ib::MemoryRegionHandle register_region(std::byte* addr, std::size_t len);
  /// Drop a rendezvous send, deregistering its device-owned copy if any.
  SendRndvMap::iterator erase_send_rndv(SendRndvMap::iterator it);
  void charge(sim::Duration d);
  void charge_copy(std::size_t bytes);

  World& world_;
  Rank me_;
  /// Cached at construction: run the auditor inline after every delivered
  /// message.
  bool audit_inline_ = false;
  sim::Process* proc_ = nullptr;
  /// Recovery runs in engine-event context where Process::delay is illegal;
  /// host-time charging is suppressed for its duration.
  bool allow_charge_ = true;
  ib::Hca* hca_ = nullptr;
  std::shared_ptr<ib::CompletionQueue> cq_;

  /// Lazy flat connection table (DESIGN.md §17). Endpoint slots live in
  /// creation order and are never removed (failed endpoints stay, so
  /// requests against them keep failing fast); `peer_index_` maps rank →
  /// slot (-1 = not connected) and is sized once at construction, so
  /// has_endpoint / ensure_endpoint are O(1) at any world size and an
  /// on-demand world pays per *active* peer, not per configured rank.
  /// `peer_ranks_` is kept sorted for deterministic rank-order iteration
  /// (serialization, peers()) without scanning the whole index. The
  /// qpn → endpoint hop rides the fabric's QPN index cookie (one array
  /// read per completion; see handle_completion).
  std::vector<std::unique_ptr<Endpoint>> conn_;
  std::vector<std::int32_t> peer_index_;
  std::vector<Rank> peer_ranks_;

  MatchQueue match_;

  /// Device-level incremental aggregates (see flow_totals/qp_totals).
  flowctl::Counters flow_agg_;
  ib::QpStats qp_agg_;

  // Bounce-buffer pool for outgoing wire messages (headers + eager data).
  std::vector<Arena> bounce_arenas_;
  std::vector<RecvSlot> bounce_slots_;
  std::vector<std::size_t> bounce_free_;

  std::map<std::uint64_t, TxCtx> tx_;
  std::uint64_t next_tx_id_ = 1;
  SendRndvMap send_rndv_;
  std::map<std::uint64_t, RecvRndv> recv_rndv_;
  std::uint64_t next_rndv_id_ = 1;

  std::list<CacheEntry> reg_cache_;  // front = most recent

  DeviceStats stats_;
};

}  // namespace mvflow::mpi
