#include "obs/recorder.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "util/serial.hpp"

namespace mvflow::obs {

std::string csv_escape(std::string_view field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string_view to_string(Ev e) {
  switch (e) {
    case Ev::msg_posted: return "msg_posted";
    case Ev::msg_segmented: return "msg_segmented";
    case Ev::msg_on_wire: return "msg_on_wire";
    case Ev::msg_acked: return "msg_acked";
    case Ev::msg_delivered: return "msg_delivered";
    case Ev::credit_grant: return "credit_grant";
    case Ev::credit_consume: return "credit_consume";
    case Ev::backlog_enter: return "backlog_enter";
    case Ev::backlog_dispatch: return "backlog_dispatch";
    case Ev::ecm_sent: return "ecm_sent";
    case Ev::rnr_nak: return "rnr_nak";
    case Ev::retransmit: return "retransmit";
    case Ev::qp_error: return "qp_error";
    case Ev::wire_post: return "wire_post";
    case Ev::wire_arrive: return "wire_arrive";
    case Ev::msg_matched: return "msg_matched";
    case Ev::credit_reset: return "credit_reset";
  }
  return "unknown";
}

void FlightRecorder::enable() {
  events_.clear();
  enabled_ = true;
}

void FlightRecorder::record(sim::TimePoint t, Ev kind, int rank, int peer,
                            std::uint32_t qpn, std::uint64_t a, std::int64_t b,
                            std::uint64_t key, std::uint8_t flags) {
  if (!enabled_) return;
  events_.push_back(TraceEvent{t, a, b, key, qpn,
                               static_cast<std::int16_t>(rank),
                               static_cast<std::int16_t>(peer), kind, flags});
}

namespace {

/// ts in trace_event JSON is microseconds; keep ns precision as decimals.
void append_ts(std::string& out, sim::TimePoint t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(t.count()) / 1000.0);
  out += buf;
}

std::string connection_label(const TraceEvent& e) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r%d->r%d", static_cast<int>(e.rank),
                static_cast<int>(e.peer));
  return buf;
}

bool is_credit_kind(Ev k) {
  return k == Ev::credit_grant || k == Ev::credit_consume ||
         k == Ev::credit_reset;
}

bool is_backlog_kind(Ev k) {
  return k == Ev::backlog_enter || k == Ev::backlog_dispatch;
}

}  // namespace

std::string FlightRecorder::chrome_trace(
    const std::vector<FlowArrowEvent>& flows) const {
  std::string out;
  out.reserve(events_.size() * 128 + flows.size() * 96 + 256);
  out += "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";

  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Flow arrows interleave with the instant events so the whole stream
  // stays non-decreasing in ts; `flows` arrives time-sorted from
  // obs::flow_events. Binding id + shared cat/name is what makes Perfetto draw the
  // s→f arrow between the sender's and receiver's tracks.
  std::size_t fi = 0;
  const auto put_flows_until = [&](sim::TimePoint t, bool all) {
    for (; fi < flows.size() && (all || flows[fi].t <= t); ++fi) {
      const FlowArrowEvent& f = flows[fi];
      sep();
      out += "{\"name\": \"msg\", \"cat\": \"prof\", \"ph\": \"";
      out += f.begin ? 's' : 'f';
      out += '"';
      if (!f.begin) out += ", \"bp\": \"e\"";
      out += ", \"id\": ";
      out += std::to_string(f.id);
      out += ", \"ts\": ";
      append_ts(out, f.t);
      out += ", \"pid\": ";
      out += std::to_string(f.rank);
      out += ", \"tid\": 0}";
    }
  };

  // Metadata: name each rank's process track once.
  std::set<std::int16_t> ranks;
  for (const auto& e : events_) ranks.insert(e.rank);
  for (const std::int16_t r : ranks) {
    sep();
    out += "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": ";
    out += std::to_string(r);
    out += ", \"args\": {\"name\": \"rank";
    out += std::to_string(r);
    out += "\"}}";
  }

  for (const auto& e : events_) {
    put_flows_until(e.t, false);
    sep();
    out += "{\"name\": \"";
    out += to_string(e.kind);
    out += "\", \"ph\": \"i\", \"s\": \"p\", \"ts\": ";
    append_ts(out, e.t);
    out += ", \"pid\": ";
    out += std::to_string(e.rank);
    out += ", \"tid\": ";
    out += std::to_string(e.qpn);
    out += ", \"args\": {\"peer\": ";
    out += std::to_string(e.peer);
    out += ", \"a\": ";
    out += std::to_string(e.a);
    out += ", \"b\": ";
    out += std::to_string(e.b);
    out += ", \"key\": ";
    out += std::to_string(e.key);
    out += ", \"flags\": ";
    out += std::to_string(e.flags);
    out += "}}";

    // Counter tracks so Perfetto draws credits / backlog depth over time.
    if (is_credit_kind(e.kind)) {
      sep();
      out += "{\"name\": \"credits ";
      out += connection_label(e);
      out += "\", \"ph\": \"C\", \"ts\": ";
      append_ts(out, e.t);
      out += ", \"pid\": ";
      out += std::to_string(e.rank);
      out += ", \"args\": {\"credits\": ";
      out += std::to_string(e.b);
      out += "}}";
    } else if (is_backlog_kind(e.kind)) {
      sep();
      out += "{\"name\": \"backlog ";
      out += connection_label(e);
      out += "\", \"ph\": \"C\", \"ts\": ";
      append_ts(out, e.t);
      out += ", \"pid\": ";
      out += std::to_string(e.rank);
      out += ", \"args\": {\"depth\": ";
      out += std::to_string(e.a);
      out += "}}";
    }
  }
  put_flows_until(sim::TimePoint{0}, true);
  out += "\n]}\n";
  return out;
}

bool FlightRecorder::export_chrome_trace(
    const std::string& path, const std::vector<FlowArrowEvent>& flows) const {
  return json::write_file(path, chrome_trace(flows));
}

std::string FlightRecorder::credit_csv() const {
  std::ostringstream os;
  os << "time_ns,rank,peer,event,credits,backlog_depth\n";
  // Last-known (credits, backlog depth) per directed connection, so each
  // row is a complete sample even though an event updates only one column.
  std::map<std::pair<std::int16_t, std::int16_t>,
           std::pair<std::int64_t, std::int64_t>>
      state;
  for (const auto& e : events_) {
    if (!is_credit_kind(e.kind) && !is_backlog_kind(e.kind)) continue;
    auto& [credits, depth] = state[{e.rank, e.peer}];
    if (is_credit_kind(e.kind)) {
      credits = e.b;
    } else {
      depth = static_cast<std::int64_t>(e.a);
      credits = e.b;
    }
    os << e.t.count() << ',' << e.rank << ',' << e.peer << ','
       << csv_escape(to_string(e.kind)) << ',' << credits << ',' << depth
       << '\n';
  }
  return os.str();
}

bool FlightRecorder::export_credit_csv(const std::string& path) const {
  return json::write_file(path, credit_csv());
}

void FlightRecorder::serialize_state(util::serial::BufWriter& w) const {
  w.b(enabled_);
  w.u64(events_.size());
  for (const TraceEvent& e : events_) {
    w.i64(e.t.count());
    w.u64(e.a);
    w.i64(e.b);
    w.u64(e.key);
    w.u32(e.qpn);
    w.i32(e.rank);
    w.i32(e.peer);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u8(e.flags);
  }
}

}  // namespace mvflow::obs
