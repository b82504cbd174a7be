// Flow-control schemes for MPI over InfiniBand RC (the paper's §4):
//
//   * hardware      — no MPI-level state; the RC end-to-end flow control
//                     (RNR NAK + timer retry, infinite retries) stalls a
//                     fast sender.
//   * user_static   — credit-based: credits start equal to the fixed number
//                     of pre-posted buffers; exhausted credits push sends
//                     into a FIFO backlog; credits return by piggybacking on
//                     every message and by optimistic explicit credit
//                     messages (ECMs) once a threshold accumulates.
//   * user_dynamic  — static machinery plus feedback: each message carries
//                     a went-through-backlog bit, and the receiver grows its
//                     pre-posted pool (linear by default) when it sees one.
//
// ConnectionFlow holds both roles of one connection endpoint: the sender
// role (credits toward the peer) and the receiver role (buffer pool for the
// peer). The MPI device layer owns one per peer and consults it on every
// send and on every reposted buffer; the policy itself lives here so it can
// be unit- and property-tested in isolation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::flowctl {

enum class Scheme : std::uint8_t { hardware, user_static, user_dynamic };

std::string_view to_string(Scheme s);
std::optional<Scheme> parse_scheme(std::string_view name);

struct Config {
  Scheme scheme = Scheme::user_static;

  /// Pre-posted (credited) buffers per connection. For the dynamic scheme
  /// this is the *starting* pool, which then grows.
  int prepost = 100;

  /// Suppress explicit credit messages while fewer than this many return
  /// credits have accumulated (paper §6.3.1 uses 5). To stay deadlock-free
  /// at tiny pools the effective threshold is min(threshold, pool size).
  int ecm_threshold = 5;

  /// user_dynamic: buffers added per backlog-feedback event (linear
  /// increase, the paper's implemented policy). One buffer per event makes
  /// the pool settle right at the workload's burst depth.
  int growth_step = 1;

  /// user_dynamic ablation: double the pool instead of linear growth.
  bool exponential_growth = false;

  /// user_dynamic: growth cap.
  int max_prepost = 1024;

  /// user_dynamic extension (the paper's stated future work, §4.3): allow
  /// the pool to shrink back toward `prepost` when the communication
  /// pattern calms down — useful for long-running multi-phase codes.
  bool allow_decay = false;

  /// Decay trigger: this many credited messages processed with no backlog
  /// feedback means the enlarged pool is no longer needed.
  int decay_idle_msgs = 512;
};

/// Per-connection counters; aggregated by the benchmarks into the paper's
/// Table 1 (ECM counts) and Table 2 (max posted buffers).
struct Counters {
  std::uint64_t credited_sent = 0;      ///< Eager-data + rendezvous-start.
  std::uint64_t control_sent = 0;       ///< CTS/FIN (uncredited, optimistic).
  std::uint64_t ecm_sent = 0;           ///< Explicit credit messages.
  std::uint64_t backlog_entered = 0;    ///< Sends that hit an empty credit pool.
  std::uint64_t backlog_dispatched = 0;
  std::uint64_t backlog_failed = 0;     ///< Backlogged sends lost to a dead QP.
  std::uint64_t optimistic_rts = 0;     ///< Famine RTSes sent without a credit.
  std::uint64_t credits_received = 0;   ///< Via piggyback + ECM.
  std::uint64_t growth_events = 0;      ///< Dynamic feedback firings.
  std::uint64_t decay_events = 0;       ///< Buffers retired by idle decay.
  int max_posted = 0;                   ///< Peak credited pool (receiver role).

  /// Total MPI-level messages this side originated on the connection.
  std::uint64_t total_messages() const {
    return credited_sent + control_sent + ecm_sent;
  }

  /// Enumerate every counter as (name, value) for a metrics sink. Kept as a
  /// template so flowctl does not depend on the obs layer.
  template <typename Fn>
  void visit(Fn&& f) const {
    f("credited_sent", static_cast<double>(credited_sent));
    f("control_sent", static_cast<double>(control_sent));
    f("ecm_sent", static_cast<double>(ecm_sent));
    f("backlog_entered", static_cast<double>(backlog_entered));
    f("backlog_dispatched", static_cast<double>(backlog_dispatched));
    f("backlog_failed", static_cast<double>(backlog_failed));
    f("optimistic_rts", static_cast<double>(optimistic_rts));
    f("credits_received", static_cast<double>(credits_received));
    f("growth_events", static_cast<double>(growth_events));
    f("decay_events", static_cast<double>(decay_events));
    f("max_posted", static_cast<double>(max_posted));
    f("total_messages", static_cast<double>(total_messages()));
  }
};

/// Runtime-adjustable subset of Config: the tunables that can change on a
/// live connection without restructuring it (the checkpoint-fork sweep
/// applies these at the warm barrier — DESIGN.md §13). Structural fields
/// (scheme, prepost) stay fixed: they define the connection's wired state.
struct TuneDelta {
  std::optional<int> ecm_threshold;
  std::optional<int> growth_step;
  std::optional<bool> exponential_growth;
  std::optional<int> max_prepost;
  std::optional<bool> allow_decay;
  std::optional<int> decay_idle_msgs;

  bool any() const noexcept {
    return ecm_threshold || growth_step || exponential_growth || max_prepost ||
           allow_decay || decay_idle_msgs;
  }
  /// Stable description for labeling sweep branches / JSON output.
  std::string to_string() const;
};

class ConnectionFlow {
 public:
  explicit ConnectionFlow(const Config& config);

  const Config& config() const noexcept { return config_; }
  Scheme scheme() const noexcept { return config_.scheme; }

  // ---- sender role: credits toward the peer ----

  /// True when a fresh credited message may be sent right now. The
  /// hardware scheme always says yes (no MPI-level flow control).
  bool credit_available() const noexcept;

  /// Acquire a credit for a credited message. Returns false (and counts
  /// nothing) when none is available — the caller must backlog the send.
  bool try_acquire_credit();

  /// Credits learned from the peer (piggyback field or ECM payload).
  void add_credits(int n);

  int credits() const noexcept { return credits_; }

  void note_backlogged() {
    ++counters_.backlog_entered;
    if (agg_ != nullptr) ++agg_->backlog_entered;
  }
  void note_backlog_dispatched() {
    ++counters_.backlog_dispatched;
    if (agg_ != nullptr) ++agg_->backlog_dispatched;
  }
  /// Backlogged sends discarded because the connection died (QP error with
  /// auto-reconnect off). Closes the backlog books: entered always equals
  /// dispatched + failed + current depth (the auditor's liveness check).
  void note_backlog_failed(std::size_t n) {
    counters_.backlog_failed += static_cast<std::uint64_t>(n);
    if (agg_ != nullptr) agg_->backlog_failed += static_cast<std::uint64_t>(n);
  }
  void note_optimistic_rts() {
    ++counters_.optimistic_rts;
    ++counters_.credited_sent;  // it is still an unexpected-class message
    if (agg_ != nullptr) {
      ++agg_->optimistic_rts;
      ++agg_->credited_sent;
    }
  }
  void note_control_sent() {
    ++counters_.control_sent;
    if (agg_ != nullptr) ++agg_->control_sent;
  }
  void note_ecm_sent() {
    ++counters_.ecm_sent;
    if (agg_ != nullptr) ++agg_->ecm_sent;
  }

  // ---- receiver role: buffer pool for the peer ----

  /// Credited pool size to pre-post at startup.
  int initial_posted() const noexcept;

  /// The buffer of a *credited* inbound message was processed and
  /// reposted: one credit is now returnable. Returns true when an ECM
  /// should be sent immediately (threshold reached and the caller has no
  /// outgoing traffic to piggyback on).
  bool on_credited_repost();

  /// Accumulated return credits, handed to an outgoing message's piggyback
  /// field (or an ECM payload). Resets the accumulator.
  int take_return_credits();

  int pending_return_credits() const noexcept { return accumulated_; }

  /// Dynamic feedback: an inbound message carried the went-through-backlog
  /// bit. Returns how many extra buffers the receiver must post now
  /// (0 for non-dynamic schemes or when the cap is reached). The new
  /// buffers immediately become returnable credits.
  int on_backlogged_flag();

  /// Decay (receiver role): called before reposting a credited message's
  /// buffer. Returns true when the buffer should be *retired* instead of
  /// reposted — the pool shrinks by one and the credit is never returned,
  /// so the sender's total shrinks in step.
  bool take_decay_slot();

  /// Current credited pool size at this receiver.
  int current_posted() const noexcept { return current_posted_; }

  /// QP recovery: the connection was rebuilt and the receiver reposted its
  /// whole pool, so sender-side credits restart at `credits` (the peer's
  /// pool minus credited messages we are about to replay). Return-credit
  /// accounting restarts from zero — credits for replayed duplicates flow
  /// back through the normal repost path. `replayed_credited` is the number
  /// of credited messages going back in flight: the audit ledger restarts
  /// with exactly those counted as consumed-but-undelivered so the
  /// conservation equation holds through the replay.
  void reconnect_reset(int credits, int replayed_credited = 0) {
    credits_ = credits < 0 ? 0 : credits;
    accumulated_ = 0;
    idle_msgs_ = 0;
    pending_decay_ = 0;
    aud_consumed_ = static_cast<std::uint64_t>(
        replayed_credited < 0 ? 0 : replayed_credited);
    aud_received_ = 0;
    aud_delivered_ = 0;
    aud_granted_ = 0;
  }

  // ---- audit ledger (obs/audit.hpp, DESIGN.md §15) ----
  //
  // Four monotonic counters maintained unconditionally (single integer
  // adds; the *checks* are what MVFLOW_AUDIT gates). Per direction a→b the
  // conservation equation reads:
  //
  //   credits(a) + [consumed(a) − delivered(b)] + pending_return(b)
  //              + [granted(b) − received(a)]  == current_posted(b)
  //
  // with both bracketed flight terms >= 0. Optimistic famine RTSes and
  // CTS/FIN/ECM control messages move none of these: they borrow a posted
  // buffer momentarily (the RNR retry is their safety net) and return it
  // without a credit.
  std::uint64_t aud_consumed() const noexcept { return aud_consumed_; }
  std::uint64_t aud_delivered() const noexcept { return aud_delivered_; }
  std::uint64_t aud_granted() const noexcept { return aud_granted_; }
  std::uint64_t aud_received() const noexcept { return aud_received_; }

  /// Test-only fault: add sender credits without touching the ledger —
  /// exactly the class of miscount (a duplicated/phantom credit grant) the
  /// auditor exists to catch. Never called outside negative tests.
  void debug_add_credits_unaccounted(int n) { credits_ += n; }

  const Counters& counters() const noexcept { return counters_; }

  /// Install an incremental aggregate sink (DESIGN.md §17): every counter
  /// mutation from here on is mirrored into `agg` at the point of change,
  /// and anything already accumulated is folded in now, so the sink always
  /// equals the sum over installed connections without re-summing them.
  /// max_posted is a peak, so it folds as a max, not a sum. The sink is
  /// owned by the device. Pass nullptr to detach.
  void set_counters_sink(Counters* agg) noexcept {
    agg_ = agg;
    if (agg == nullptr) return;
    agg->credited_sent += counters_.credited_sent;
    agg->control_sent += counters_.control_sent;
    agg->ecm_sent += counters_.ecm_sent;
    agg->backlog_entered += counters_.backlog_entered;
    agg->backlog_dispatched += counters_.backlog_dispatched;
    agg->backlog_failed += counters_.backlog_failed;
    agg->optimistic_rts += counters_.optimistic_rts;
    agg->credits_received += counters_.credits_received;
    agg->growth_events += counters_.growth_events;
    agg->decay_events += counters_.decay_events;
    if (counters_.max_posted > agg->max_posted) {
      agg->max_posted = counters_.max_posted;
    }
  }

  /// Apply a mid-run tuning delta (checkpoint-fork sweep). Only the
  /// policy knobs move; credits, pools, and counters are untouched.
  void retune(const TuneDelta& d);

  /// Serialize the complete per-connection flow-control state — config,
  /// credits, accumulators, pool size, decay bookkeeping, and counters —
  /// for the snapshot's restore audit.
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  bool user_level() const noexcept {
    return config_.scheme != Scheme::hardware;
  }
  int effective_ecm_threshold() const noexcept;

  Config config_;
  int credits_ = 0;         // sender role
  int accumulated_ = 0;     // receiver role: returnable credits
  int current_posted_ = 0;  // receiver role: credited pool size
  int idle_msgs_ = 0;       // credited reposts since the last growth event
  int pending_decay_ = 0;   // buffers queued for retirement
  // Audit ledger (see the aud_* accessors). Deliberately absent from
  // serialize_state: a restore's deterministic replay rebuilds them, and
  // the snapshot format stays stable.
  std::uint64_t aud_consumed_ = 0;   // sender: credits spent on sends
  std::uint64_t aud_delivered_ = 0;  // receiver: credited buffers processed
  std::uint64_t aud_granted_ = 0;    // receiver: credits handed to the wire
  std::uint64_t aud_received_ = 0;   // sender: credits learned from the peer
  Counters counters_;
  Counters* agg_ = nullptr;  ///< device-owned aggregate; see set_counters_sink
};

}  // namespace mvflow::flowctl
