// Causal-profile analyzer (DESIGN.md §16).
//
//   mvflow_prof analyze PROFILE [--top=K]
//   mvflow_prof diff A B [--payload-only=0|1]
//
// `analyze` reads one profile document ($MVFLOW_PROF export, schema
// "mvflow.prof.v1") and prints the run's latency attribution: per-segment
// totals for payload and control traffic, per-connection blame, the top-K
// critical-path segments, the heaviest messages, and one machine-readable
// line:
//
//   RESULT messages=<n> e2e_ns=<n> attributed_ns=<n> exact=<0|1>
//
// `diff` compares two runs of the same workload (say, prepost=100 vs a
// credit-starved prepost=2) and attributes the end-to-end latency gap to
// segments: for each segment the delta and its fraction of the total e2e
// delta. The paper's Figure 3 gap, run through `diff`, lands almost
// entirely on credit_stall + ecm_rtt — that attribution is what the
// perf-smoke gate asserts. Prints:
//
//   RESULT de2e_ns=<n> top_segment=<name> top_fraction=<f> attributed=<f>
//
// Exit codes: 0 success, 2 unreadable/malformed profile, 1 usage error.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/options.hpp"

namespace {

using namespace mvflow;
using obs::json::Value;

constexpr const char* kSegments[] = {"credit_stall", "ecm_rtt", "backlog",
                                     "retransmit",   "wire",    "match_wait"};
constexpr std::size_t kNSeg = sizeof(kSegments) / sizeof(kSegments[0]);

struct Totals {
  std::int64_t messages = 0;
  std::int64_t e2e_ns = 0;
  std::int64_t seg[kNSeg] = {};
};

std::int64_t num_field(const Value& obj, const std::string& key) {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? static_cast<std::int64_t>(v->number)
                                        : 0;
}

Totals read_totals(const Value& obj) {
  Totals t;
  t.messages = num_field(obj, "messages");
  t.e2e_ns = num_field(obj, "e2e_ns");
  for (std::size_t i = 0; i < kNSeg; ++i) {
    t.seg[i] = num_field(obj, std::string(kSegments[i]) + "_ns");
  }
  return t;
}

struct Profile {
  std::string label;
  bool exact = false;
  std::int64_t incomplete = 0;
  Totals payload;
  Totals control;
  Value doc;  // full tree, for connections / top_messages / critical_path
};

std::optional<Profile> load_profile(const std::string& path) {
  std::ostringstream buf;
  if (path == "-") {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return std::nullopt;
    }
    buf << in.rdbuf();
  }
  auto parsed = obs::json::parse(buf.str());
  if (!parsed || !parsed->is_object()) {
    std::fprintf(stderr, "%s: not a JSON object\n", path.c_str());
    return std::nullopt;
  }
  const Value* schema = parsed->find("schema");
  if (schema == nullptr || schema->string != "mvflow.prof.v1") {
    std::fprintf(stderr, "%s: not an mvflow.prof.v1 document\n", path.c_str());
    return std::nullopt;
  }
  Profile p;
  if (const Value* l = parsed->find("label")) p.label = l->string;
  p.exact = num_field(*parsed, "exact") != 0;
  p.incomplete = num_field(*parsed, "incomplete");
  if (const Value* v = parsed->find("payload")) p.payload = read_totals(*v);
  if (const Value* v = parsed->find("control")) p.control = read_totals(*v);
  p.doc = std::move(*parsed);
  return p;
}

double pct(std::int64_t part, std::int64_t whole) {
  return whole != 0 ? 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole)
                    : 0.0;
}

void print_totals(const char* name, const Totals& t) {
  std::printf("%s: %" PRId64 " messages, e2e %" PRId64 " ns\n", name,
              t.messages, t.e2e_ns);
  for (std::size_t i = 0; i < kNSeg; ++i) {
    if (t.seg[i] == 0 && t.e2e_ns != 0) continue;  // keep it readable
    std::printf("  %-12s %14" PRId64 " ns  %6.2f%%\n", kSegments[i], t.seg[i],
                pct(t.seg[i], t.e2e_ns));
  }
}

int cmd_analyze(const util::Options& opt) {
  if (opt.positional().size() < 2) {
    std::fprintf(stderr, "usage: mvflow_prof analyze PROFILE [--top=K]\n");
    return 1;
  }
  const auto p = load_profile(opt.positional()[1]);
  if (!p) return 2;
  const std::size_t top_k =
      static_cast<std::size_t>(opt.get_int("top", 10));

  std::printf("profile '%s'  exact=%d  incomplete=%" PRId64 "\n",
              p->label.c_str(), p->exact ? 1 : 0, p->incomplete);
  print_totals("payload", p->payload);
  print_totals("control", p->control);

  if (const Value* conns = p->doc.find("connections");
      conns != nullptr && conns->is_array() && !conns->array.empty()) {
    std::printf("connections (payload blame):\n");
    for (const Value& c : conns->array) {
      const Totals t = read_totals(c);
      // Dominant segment for this direction: the one-line answer to
      // "what is r->r' waiting on".
      std::size_t worst = 0;
      for (std::size_t i = 1; i < kNSeg; ++i) {
        if (t.seg[i] > t.seg[worst]) worst = i;
      }
      std::printf("  r%" PRId64 "->r%" PRId64 ": %" PRId64
                  " msgs, e2e %" PRId64 " ns, worst %s (%.2f%%)\n",
                  num_field(c, "src"), num_field(c, "dst"), t.messages,
                  t.e2e_ns, kSegments[worst], pct(t.seg[worst], t.e2e_ns));
    }
  }

  if (const Value* path = p->doc.find("critical_path");
      path != nullptr && path->is_array() && !path->array.empty()) {
    std::printf("critical path (%zu steps, root first):\n",
                path->array.size());
    const std::size_t n = std::min(path->array.size(), top_k);
    // Show the top-k *heaviest* steps, but keep chain order within them.
    std::vector<const Value*> steps;
    for (const Value& s : path->array) steps.push_back(&s);
    std::vector<const Value*> heaviest = steps;
    std::stable_sort(heaviest.begin(), heaviest.end(),
                     [](const Value* x, const Value* y) {
                       return num_field(*x, "ns") > num_field(*y, "ns");
                     });
    heaviest.resize(n);
    for (const Value* s : steps) {
      if (std::find(heaviest.begin(), heaviest.end(), s) == heaviest.end())
        continue;
      const Value* seg = s->find("segment");
      std::printf("  r%" PRId64 "->r%" PRId64 " seq=%" PRId64
                  " %-12s %14" PRId64 " ns\n",
                  num_field(*s, "src"), num_field(*s, "dst"),
                  num_field(*s, "seq"),
                  seg != nullptr ? seg->string.c_str() : "?",
                  num_field(*s, "ns"));
    }
  }

  if (const Value* msgs = p->doc.find("top_messages");
      msgs != nullptr && msgs->is_array() && !msgs->array.empty()) {
    const std::size_t n = std::min(msgs->array.size(), top_k);
    std::printf("top %zu messages by e2e:\n", n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value& m = msgs->array[i];
      const Totals t = read_totals(m);
      std::size_t worst = 0;
      for (std::size_t j = 1; j < kNSeg; ++j) {
        if (t.seg[j] > t.seg[worst]) worst = j;
      }
      std::printf("  r%" PRId64 "->r%" PRId64 " seq=%" PRId64 " %" PRId64
                  "B e2e=%" PRId64 " ns, worst %s (%.2f%%)\n",
                  num_field(m, "src"), num_field(m, "dst"),
                  num_field(m, "seq"), num_field(m, "bytes"),
                  num_field(m, "e2e_ns"), kSegments[worst],
                  pct(t.seg[worst], num_field(m, "e2e_ns")));
    }
  }

  std::int64_t attributed = 0;
  for (std::size_t i = 0; i < kNSeg; ++i) {
    attributed += p->payload.seg[i] + p->control.seg[i];
  }
  std::printf("RESULT messages=%" PRId64 " e2e_ns=%" PRId64
              " attributed_ns=%" PRId64 " exact=%d\n",
              p->payload.messages + p->control.messages,
              p->payload.e2e_ns + p->control.e2e_ns, attributed,
              p->exact ? 1 : 0);
  return 0;
}

int cmd_diff(const util::Options& opt) {
  if (opt.positional().size() < 3) {
    std::fprintf(stderr, "usage: mvflow_prof diff A B [--payload-only=1]\n");
    return 1;
  }
  const auto a = load_profile(opt.positional()[1]);
  const auto b = load_profile(opt.positional()[2]);
  if (!a || !b) return 2;
  // Payload traffic is what the benchmarks time; control totals shift with
  // the flow-control scheme itself (more ECMs is the mechanism, not the
  // cost) and are excluded from the gap by default.
  const bool payload_only = opt.get_bool("payload-only", true);
  const auto pick = [payload_only](const Profile& p) {
    Totals t = p.payload;
    if (!payload_only) {
      t.messages += p.control.messages;
      t.e2e_ns += p.control.e2e_ns;
      for (std::size_t i = 0; i < kNSeg; ++i) t.seg[i] += p.control.seg[i];
    }
    return t;
  };
  const Totals ta = pick(*a);
  const Totals tb = pick(*b);
  if (ta.messages != tb.messages) {
    std::printf("note: message counts differ (%" PRId64 " vs %" PRId64
                "); comparing totals anyway\n",
                ta.messages, tb.messages);
  }

  const std::int64_t de2e = tb.e2e_ns - ta.e2e_ns;
  std::printf("diff '%s' -> '%s' (%s): e2e %" PRId64 " -> %" PRId64
              " ns (delta %+" PRId64 " ns)\n",
              a->label.c_str(), b->label.c_str(),
              payload_only ? "payload" : "payload+control", ta.e2e_ns,
              tb.e2e_ns, de2e);
  std::int64_t attributed = 0;
  std::size_t top = 0;
  std::int64_t top_abs = -1;
  for (std::size_t i = 0; i < kNSeg; ++i) {
    const std::int64_t d = tb.seg[i] - ta.seg[i];
    attributed += d;
    const std::int64_t mag = d < 0 ? -d : d;
    if (mag > top_abs) {
      top_abs = mag;
      top = i;
    }
    std::printf("  %-12s %+14" PRId64 " ns  %6.2f%% of gap\n", kSegments[i],
                d, pct(d, de2e));
  }
  const double top_fraction =
      de2e != 0
          ? static_cast<double>(tb.seg[top] - ta.seg[top]) /
                static_cast<double>(de2e)
          : 0.0;
  const double attr_fraction =
      de2e != 0 ? static_cast<double>(attributed) / static_cast<double>(de2e)
                : 1.0;
  // Credit famine's combined signature (segments 0 and 1): the fraction the
  // fig3 prepost-vs-starved acceptance check reads.
  const std::int64_t dstall =
      (tb.seg[0] - ta.seg[0]) + (tb.seg[1] - ta.seg[1]);
  const double stall_fraction =
      de2e != 0 ? static_cast<double>(dstall) / static_cast<double>(de2e)
                : 0.0;
  std::printf("RESULT de2e_ns=%" PRId64
              " top_segment=%s top_fraction=%.4f stall_fraction=%.4f "
              "attributed=%.4f\n",
              de2e, kSegments[top], top_fraction, stall_fraction,
              attr_fraction);
  return 0;
}

int run(const util::Options& opt) {
  const std::string cmd = opt.positional().empty() ? "" : opt.positional()[0];
  if (cmd == "analyze") return cmd_analyze(opt);
  if (cmd == "diff") return cmd_diff(opt);
  std::fprintf(stderr, "usage: mvflow_prof analyze|diff [options]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
