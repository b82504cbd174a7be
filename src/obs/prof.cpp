#include "obs/prof.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "obs/json.hpp"

namespace mvflow::obs {

std::string_view to_string(Segment s) {
  switch (s) {
    case Segment::credit_stall: return "credit_stall";
    case Segment::ecm_rtt: return "ecm_rtt";
    case Segment::backlog: return "backlog";
    case Segment::retransmit: return "retransmit";
    case Segment::wire: return "wire";
    case Segment::match_wait: return "match_wait";
  }
  return "?";
}

// ------------------------------------------------------- offline analysis --

namespace {

using ConnKey = std::tuple<std::int16_t, std::int16_t, std::uint64_t>;

/// The sending device's side of one wire message (from its wire_post).
struct DevSend {
  std::int16_t src = -1;
  std::int16_t dst = -1;
  std::uint8_t msg_kind = 0;
  std::uint8_t flags = 0;
  std::uint32_t bytes = 0;
  std::uint64_t seq = kProfNoSeq;
  std::uint64_t wr_id = 0;
  std::uint64_t grant_seq = kProfNoSeq;
  std::int64_t zero_ns = 0;  ///< zero-credit overlap of [t_post, t_disp]
  std::int64_t t_post = -1;
  std::int64_t t_disp = -1;
  std::int64_t t_released = -1;  ///< backlog_dispatch (backlogged only)
};

/// One WQE's requester lifecycle, committed at its msg_acked instant.
struct QpSend {
  std::int16_t src = -1;
  std::uint64_t wr_id = 0;
  std::uint32_t n_retx = 0;
  std::int64_t t_posted = -1;
  std::int64_t t_first_tx = -1;
  std::int64_t t_last_tx = -1;
  std::int64_t t_acked = -1;
};

/// The receiving device's side of one wire message.
struct DevRecv {
  std::uint8_t flags = 0;
  std::int64_t t_arrive = -1;
  std::int64_t t_matched = -1;
};

struct Replay {
  std::vector<DevSend> sends;        ///< wire_post order
  std::vector<QpSend> qps;           ///< msg_acked order
  std::map<ConnKey, DevRecv> recvs;  ///< first arrival per wire message
};

/// One sender-side connection's credit and backlog history. A zero-credit
/// episode opens when a consume leaves no credit and closes when a grant
/// refills the pool; cumulative zero time at any instant is `cum_zero`
/// plus the open episode's age, so a backlogged message's zero-credit
/// overlap is the difference of two readings.
struct ConnReplay {
  std::int64_t zero_since = -1;  ///< open episode start; -1 = none
  std::int64_t cum_zero = 0;     ///< closed-episode zero-credit ns
  std::uint64_t grant_seq = kProfNoSeq;  ///< last releasing grant
  bool grant_ecm = false;
  /// backlog_enter FIFO: (enqueued at, cumulative zero then).
  std::deque<std::pair<std::int64_t, std::int64_t>> queued;
  /// Released but not yet posted: (enqueued at, released at, overlap).
  std::deque<std::tuple<std::int64_t, std::int64_t, std::int64_t>> released;

  std::int64_t zero_total(std::int64_t now) const noexcept {
    return cum_zero + (zero_since >= 0 ? now - zero_since : 0);
  }
  void close_episode(std::int64_t now) noexcept {
    if (zero_since < 0) return;
    cum_zero += now - zero_since;
    zero_since = -1;
  }
};

/// The one pass over the stream both views share.
Replay replay(std::span<const TraceEvent> events) {
  Replay out;
  std::map<std::pair<std::int16_t, std::int16_t>, ConnReplay> conns;
  std::map<std::pair<std::uint32_t, std::uint64_t>, QpSend> live;  // qpn, msn
  for (const TraceEvent& e : events) {
    const std::int64_t t = e.t.count();
    switch (e.kind) {
      case Ev::msg_posted: {
        QpSend& q = live[{e.qpn, e.a}];
        q = QpSend{};
        q.src = e.rank;
        q.wr_id = e.key;
        q.t_posted = t;
        break;
      }
      case Ev::msg_on_wire:
      case Ev::retransmit: {
        const auto it = live.find({e.qpn, e.a});
        if (it == live.end()) break;
        // last_tx tracks the latest transmission start, first_tx only the
        // first: their gap is exactly the retransmit segment.
        if (e.kind == Ev::retransmit) {
          ++it->second.n_retx;
        } else {
          it->second.t_first_tx = t;
        }
        it->second.t_last_tx = t;
        break;
      }
      case Ev::msg_acked: {
        const auto it = live.find({e.qpn, e.a});
        if (it == live.end()) break;
        if (it->second.t_first_tx >= 0) {
          it->second.t_acked = t;
          out.qps.push_back(it->second);
        }
        live.erase(it);
        break;
      }
      case Ev::credit_consume: {
        ConnReplay& c = conns[{e.rank, e.peer}];
        if (e.b == 0 && c.zero_since < 0) c.zero_since = t;
        break;
      }
      case Ev::credit_grant: {
        // A grant that refills an empty pool ends the famine, and is the
        // causal predecessor of whichever blocked message posts next.
        ConnReplay& c = conns[{e.rank, e.peer}];
        if (c.zero_since < 0 || e.b <= 0) break;
        c.close_episode(t);
        c.grant_seq = e.key;
        c.grant_ecm = (e.flags & kProfGrantEcm) != 0;
        break;
      }
      case Ev::credit_reset: {
        // The credit exchange restarts from scratch: close the episode,
        // forget the stale grant, reopen only if the reset pool is empty.
        ConnReplay& c = conns[{e.rank, e.peer}];
        c.close_episode(t);
        if (e.b == 0) c.zero_since = t;
        c.grant_seq = kProfNoSeq;
        c.grant_ecm = false;
        break;
      }
      case Ev::backlog_enter: {
        ConnReplay& c = conns[{e.rank, e.peer}];
        c.queued.emplace_back(t, c.zero_total(t));
        break;
      }
      case Ev::backlog_dispatch: {
        ConnReplay& c = conns[{e.rank, e.peer}];
        if (c.queued.empty()) break;
        const auto [enqueued, zero_base] = c.queued.front();
        c.queued.pop_front();
        c.released.emplace_back(enqueued, t, c.zero_total(t) - zero_base);
        break;
      }
      case Ev::wire_post: {
        DevSend s;
        s.src = e.rank;
        s.dst = e.peer;
        s.msg_kind = static_cast<std::uint8_t>(e.flags >> kMsgKindShift);
        s.flags = static_cast<std::uint8_t>(
            e.flags & ((1u << kMsgKindShift) - 1) & ~kProfBacklogged);
        s.bytes = static_cast<std::uint32_t>(e.b);
        s.seq = e.key;
        s.wr_id = e.a;
        s.t_post = t;
        s.t_disp = t;
        if ((e.flags & kProfBacklogged) != 0) {
          ConnReplay& c = conns[{e.rank, e.peer}];
          if (!c.released.empty()) {
            std::tie(s.t_post, s.t_released, s.zero_ns) = c.released.front();
            c.released.pop_front();
            s.flags |= kProfBacklogged;
          }
          if (s.zero_ns > 0 && c.grant_seq != kProfNoSeq) {
            s.grant_seq = c.grant_seq;
            if (c.grant_ecm) s.flags |= kProfGrantEcm;
          }
        }
        out.sends.push_back(s);
        break;
      }
      case Ev::wire_arrive: {
        // A reconnect replay can deliver a sequence again; the first
        // arrival is the one the device applied. Control messages have no
        // MPI-level receive: they complete at arrival.
        const auto [it, fresh] = out.recvs.try_emplace({e.peer, e.rank, e.key});
        if (!fresh) break;
        it->second.t_arrive = t;
        if ((e.flags & kProfPayload) == 0) it->second.t_matched = t;
        break;
      }
      case Ev::msg_matched: {
        const auto it = out.recvs.find({e.peer, e.rank, e.key});
        if (it == out.recvs.end() || it->second.t_matched >= 0) break;
        it->second.t_matched = t;
        it->second.flags = e.flags & kProfUnexpected;
        break;
      }
      default:
        break;
    }
  }
  return out;
}

}  // namespace

ProfileAnalysis analyze(std::span<const TraceEvent> events) {
  ProfileAnalysis out;
  const Replay r = replay(events);

  // Index the three sides. QP recovery can replay a wire message through a
  // fresh QP (same wr_id, same sequence number); emplace keeps the first
  // acked lifecycle, which carries the original protocol history.
  std::map<ConnKey, const DevSend*> sends;
  for (const DevSend& s : r.sends) sends.emplace(ConnKey{s.src, s.dst, s.seq}, &s);
  std::map<std::pair<std::int16_t, std::uint64_t>, const QpSend*> qps;
  for (const QpSend& q : r.qps) qps.emplace(std::make_pair(q.src, q.wr_id), &q);
  const auto received = [&r](const ConnKey& key) -> const DevRecv* {
    const auto it = r.recvs.find(key);
    return it == r.recvs.end() || it->second.t_matched < 0 ? nullptr
                                                           : &it->second;
  };

  // Join each device send with its QP lifecycle and its receive; the map
  // iteration order is the canonical (src, dst, seq) order.
  std::map<std::pair<std::int16_t, std::int16_t>, SegmentTotals> conns;
  for (const auto& [key, s] : sends) {
    const auto qit = qps.find({s->src, s->wr_id});
    const DevRecv* rv = received(key);
    if (qit == qps.end() || rv == nullptr) {
      ++out.incomplete;
      continue;
    }
    const QpSend& q = *qit->second;

    MessageProfile m;
    m.src = s->src;
    m.dst = s->dst;
    m.seq = s->seq;
    m.grant_seq = s->grant_seq;
    m.msg_kind = s->msg_kind;
    m.flags = s->flags;
    m.bytes = s->bytes;
    m.n_retx = q.n_retx;
    m.t_post = s->t_post;
    m.t_disp = s->t_disp;
    m.t_first_tx = q.t_first_tx;
    m.t_last_tx = q.t_last_tx;
    m.t_acked = q.t_acked;
    m.t_recv = rv->t_arrive;
    m.t_matched = rv->t_matched;
    m.flags |= rv->flags;

    // The wait before dispatch splits three ways. `zero` is the replayed
    // zero-credit overlap of [t_post, t_disp]; the slice of it during which
    // the releasing ECM was actually in flight is the ECM round-trip, the
    // rest is plain credit stall, and the credits-available remainder of
    // the wait is head-of-line backlog queueing.
    const std::int64_t wait = m.t_disp - m.t_post;
    const std::int64_t zero = std::clamp<std::int64_t>(s->zero_ns, 0, wait);
    std::int64_t ecm = 0;
    if (zero > 0 && (s->flags & kProfGrantEcm) != 0 &&
        s->grant_seq != kProfNoSeq) {
      const ConnKey gkey{s->dst, s->src, s->grant_seq};
      const auto gs = sends.find(gkey);
      const DevRecv* gr = received(gkey);
      if (gs != sends.end() && gr != nullptr) {
        const std::int64_t lo = std::max(m.t_post, gs->second->t_disp);
        const std::int64_t hi = std::min(m.t_disp, gr->t_arrive);
        ecm = std::clamp<std::int64_t>(hi - lo, 0, zero);
      }
    }
    m.seg[static_cast<std::size_t>(Segment::credit_stall)] = zero - ecm;
    m.seg[static_cast<std::size_t>(Segment::ecm_rtt)] = ecm;
    m.seg[static_cast<std::size_t>(Segment::backlog)] = wait - zero;
    m.seg[static_cast<std::size_t>(Segment::retransmit)] =
        m.t_last_tx - m.t_first_tx;
    m.seg[static_cast<std::size_t>(Segment::wire)] =
        (m.t_first_tx - m.t_disp) + (m.t_recv - m.t_last_tx);
    m.seg[static_cast<std::size_t>(Segment::match_wait)] =
        m.t_matched - m.t_recv;

    out.exact = out.exact && m.attributed() == m.e2e();
    if ((m.flags & kProfPayload) != 0) {
      out.payload.add(m);
      conns[{m.src, m.dst}].add(m);
    } else {
      out.control.add(m);
    }
    out.messages.push_back(m);
  }

  out.connections.reserve(conns.size());
  for (const auto& [key, totals] : conns) {
    ConnectionBlame b;
    b.src = key.first;
    b.dst = key.second;
    b.totals = totals;
    out.connections.push_back(b);
  }

  // Critical path: start at the last-completing payload message and walk
  // the grant chain backwards — each hop is the message whose arrival
  // released the blocked sender. Root first, last completion last.
  const MessageProfile* last = nullptr;
  for (const MessageProfile& m : out.messages) {
    if ((m.flags & kProfPayload) == 0) continue;
    if (last == nullptr || m.t_matched > last->t_matched) last = &m;
  }
  std::vector<const MessageProfile*> chain;
  for (const MessageProfile* cur = last;
       cur != nullptr && chain.size() < 64;) {
    chain.push_back(cur);
    const MessageProfile* pred = nullptr;
    const std::int64_t stall =
        cur->seg[static_cast<std::size_t>(Segment::credit_stall)] +
        cur->seg[static_cast<std::size_t>(Segment::ecm_rtt)];
    if (stall > 0 && cur->grant_seq != kProfNoSeq) {
      // The canonical message vector is sorted by (src, dst, seq).
      MessageProfile probe;
      probe.src = cur->dst;
      probe.dst = cur->src;
      probe.seq = cur->grant_seq;
      const auto it = std::lower_bound(
          out.messages.begin(), out.messages.end(), probe,
          [](const MessageProfile& a, const MessageProfile& b) {
            return std::tie(a.src, a.dst, a.seq) <
                   std::tie(b.src, b.dst, b.seq);
          });
      if (it != out.messages.end() && it->src == probe.src &&
          it->dst == probe.dst && it->seq == probe.seq) {
        pred = &*it;
      }
    }
    cur = pred;
  }
  std::reverse(chain.begin(), chain.end());
  for (const MessageProfile* m : chain) {
    for (std::size_t i = 0; i < kSegmentCount; ++i) {
      if (m->seg[i] == 0) continue;
      CriticalStep step;
      step.src = m->src;
      step.dst = m->dst;
      step.seq = m->seq;
      step.segment = static_cast<Segment>(i);
      step.ns = m->seg[i];
      out.critical_path.push_back(step);
    }
  }
  return out;
}

LatencyBreakdown latency_view(std::span<const TraceEvent> events) {
  LatencyBreakdown out;
  const auto add = [](util::RunningStats& rs, util::Histogram& h,
                      std::int64_t d) {
    rs.add(static_cast<double>(d));
    h.add(static_cast<double>(d));
  };
  const Replay r = replay(events);
  std::set<std::pair<std::int16_t, std::uint64_t>> seen;  // (src, wr_id)
  for (const QpSend& q : r.qps) {
    if (!seen.emplace(q.src, q.wr_id).second) continue;
    add(out.post_to_wire, out.post_to_wire_hist, q.t_first_tx - q.t_posted);
    add(out.wire_to_ack, out.wire_to_ack_hist, q.t_acked - q.t_first_tx);
  }
  for (const DevSend& s : r.sends) {
    if ((s.flags & kProfBacklogged) == 0) continue;
    add(out.backlog_residency, out.backlog_residency_hist,
        s.t_released - s.t_post);
  }
  return out;
}

bool audit_against(const ProfileAnalysis& a, const LatencyBreakdown& view,
                   const CounterBooks& books) {
  return a.exact &&
         a.payload.messages + a.control.messages + a.incomplete ==
             books.wire_msgs &&
         view.backlog_residency.count() == books.backlog_dispatched &&
         view.post_to_wire.count() == books.qp_sends &&
         view.wire_to_ack.count() == books.qp_sends;
}

std::vector<FlowArrowEvent> flow_events(const ProfileAnalysis& a) {
  std::vector<FlowArrowEvent> out;
  out.reserve(a.messages.size() * 2);
  for (const MessageProfile& m : a.messages) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(m.src)) << 48) |
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(m.dst)) << 32) |
        (m.seq & 0xffffffffull);
    out.push_back({sim::TimePoint(m.t_disp), m.src, id, true});
    out.push_back({sim::TimePoint(m.t_recv), m.dst, id, false});
  }
  std::sort(out.begin(), out.end(),
            [](const FlowArrowEvent& x, const FlowArrowEvent& y) {
              if (x.t != y.t) return x.t < y.t;
              if (x.id != y.id) return x.id < y.id;
              return x.begin && !y.begin;  // "s" precedes its "f" at equal t
            });
  return out;
}

// ---------------------------------------------------------- JSON profile --

namespace {

void put_totals(std::ostringstream& os, const SegmentTotals& t) {
  os << "\"messages\": " << t.messages << ", \"e2e_ns\": " << t.e2e_ns;
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    os << ", \"" << to_string(static_cast<Segment>(i))
       << "_ns\": " << t.seg[i];
  }
}

void put_message(std::ostringstream& os, const MessageProfile& m) {
  os << "{\"src\": " << m.src << ", \"dst\": " << m.dst
     << ", \"seq\": " << m.seq << ", \"kind\": " << int(m.msg_kind)
     << ", \"flags\": " << int(m.flags) << ", \"bytes\": " << m.bytes
     << ", \"n_retx\": " << m.n_retx << ", \"t_post_ns\": " << m.t_post
     << ", \"t_matched_ns\": " << m.t_matched
     << ", \"e2e_ns\": " << m.e2e();
  for (std::size_t i = 0; i < kSegmentCount; ++i) {
    os << ", \"" << to_string(static_cast<Segment>(i))
       << "_ns\": " << m.seg[i];
  }
  os << "}";
}

}  // namespace

std::string profile_to_json(const ProfileAnalysis& a, std::string_view label) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"mvflow.prof.v1\",\n  \"label\": \""
     << json::escape(label) << "\",\n  \"exact\": " << (a.exact ? 1 : 0)
     << ",\n  \"incomplete\": " << a.incomplete << ",\n  \"payload\": {";
  put_totals(os, a.payload);
  os << "},\n  \"control\": {";
  put_totals(os, a.control);
  os << "},\n  \"connections\": [";
  for (std::size_t i = 0; i < a.connections.size(); ++i) {
    const ConnectionBlame& c = a.connections[i];
    os << (i == 0 ? "" : ",") << "\n    {\"src\": " << c.src
       << ", \"dst\": " << c.dst << ", ";
    put_totals(os, c.totals);
    os << "}";
  }
  os << "\n  ],\n";

  // The heaviest messages, by end-to-end latency (ties broken canonically);
  // capped so a long profiled run stays a reviewable document — the totals
  // above remain exact over every message regardless.
  constexpr std::size_t kTopCap = 256;
  std::vector<const MessageProfile*> top;
  top.reserve(a.messages.size());
  for (const MessageProfile& m : a.messages) top.push_back(&m);
  std::stable_sort(top.begin(), top.end(),
                   [](const MessageProfile* x, const MessageProfile* y) {
                     return x->e2e() > y->e2e();
                   });
  const std::size_t shown = std::min(top.size(), kTopCap);
  os << "  \"top_capped\": " << (top.size() > kTopCap ? 1 : 0)
     << ",\n  \"top_messages\": [";
  for (std::size_t i = 0; i < shown; ++i) {
    os << (i == 0 ? "" : ",") << "\n    ";
    put_message(os, *top[i]);
  }
  os << "\n  ],\n  \"critical_path\": [";
  for (std::size_t i = 0; i < a.critical_path.size(); ++i) {
    const CriticalStep& s = a.critical_path[i];
    os << (i == 0 ? "" : ",") << "\n    {\"src\": " << s.src
       << ", \"dst\": " << s.dst << ", \"seq\": " << s.seq
       << ", \"segment\": \"" << to_string(s.segment)
       << "\", \"ns\": " << s.ns << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bool write_profile(const std::string& path, const ProfileAnalysis& a,
                   std::string_view label) {
  return json::write_file(path, profile_to_json(a, label));
}

}  // namespace mvflow::obs
