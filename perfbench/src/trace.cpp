#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench::trace {
namespace {

struct KindInfo {
  const char* name;
  Layer layer;
  /// The call can suspend its thread while another one runs (a rank
  /// handoff), so its wall time overlaps spans on other threads. Self time
  /// of such a span is counted in thread CPU time, which never includes a
  /// blocked thread; other spans count wall time.
  bool blocking;
};

constexpr KindInfo kKinds[] = {
    {"mpi::World::World", Layer::mpi, false},
    {"mpi::World::run", Layer::mpi, true},
    {"mpi::Communicator::send", Layer::mpi, true},
    {"mpi::Communicator::recv", Layer::mpi, true},
    {"mpi::Communicator::isend", Layer::mpi, true},
    {"mpi::Communicator::irecv", Layer::mpi, true},
    {"mpi::Communicator::wait_all", Layer::mpi, true},
    {"nas::run_lu", Layer::nas, true},
    {"nas::run_mg", Layer::nas, true},
    {"nas::run_cg", Layer::nas, true},
    {"sim::Engine::run", Layer::sim, false},
    {"ib::QueuePair::post_send", Layer::ib, false},
    {"ib::QueuePair::post_recv", Layer::ib, false},
    {"ib::CompletionQueue::poll", Layer::ib, false},
    {"ib::Fabric::connect", Layer::ib, false},
};
static_assert(std::size(kKinds) == static_cast<std::size_t>(Kind::kCount));

// Enough for a median of the hottest call over a traced run without the
// sample buffers growing past a few tens of MB.
constexpr std::size_t kMaxSamplesPerKind = std::size_t{4} << 20;

struct Open {
  std::uint32_t id;
  Kind kind;
  std::int64_t start_ns;
  std::int64_t start_cpu_ns;  // blocking kinds only
  std::int64_t child_ns;      // children's own measure (CPU or wall)
};

struct Record {
  std::uint32_t id;
  std::uint32_t parent;
  std::uint32_t tid;
  Kind kind;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

bool g_on = false;
std::uint32_t g_next_id = 0;
Stats g_stats;
std::vector<Record> g_records;
std::size_t g_keep_cap = 0;
// The open World::run span, which rank threads adopt as their parent.
std::uint32_t g_run_span = 0;

thread_local std::vector<Open> t_stack;
thread_local std::uint32_t t_adopted = 0;
thread_local std::uint32_t t_tid = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::sim: return "sim";
    case Layer::ib: return "ib";
    case Layer::mpi: return "mpi";
    case Layer::nas: return "nas";
    case Layer::kCount: break;
  }
  return "?";
}

const char* kind_name(Kind k) {
  return kKinds[static_cast<std::size_t>(k)].name;
}
Layer kind_layer(Kind k) { return kKinds[static_cast<std::size_t>(k)].layer; }

double KindStats::median_ns() const {
  if (samples_ns.empty()) return 0.0;
  // Durations are whole nanoseconds, so many calls tie at the median.
  // Interpolate within the median's 1 ns step (the grouped-data median):
  // the estimate then moves with the distribution instead of snapping to
  // the same integer on every run.
  std::vector<std::uint32_t> v = samples_ns;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const std::uint32_t m = v[mid];
  std::size_t below = 0, at = 0;
  for (std::uint32_t x : v) {
    below += x < m ? 1 : 0;
    at += x == m ? 1 : 0;
  }
  const double half = static_cast<double>(v.size()) / 2.0;
  return static_cast<double>(m) - 0.5 +
         (half - static_cast<double>(below)) / static_cast<double>(at);
}

void set_enabled(bool on) { g_on = on; }

void keep_spans(std::size_t cap) {
  g_keep_cap = cap;
  g_records.reserve(cap);
}

Stats take_stats() {
  Stats out = std::move(g_stats);
  g_stats = Stats{};
  return out;
}

Span::Span(Kind k) {
  if (!g_on) return;
  active_ = true;
  const bool blocking = kKinds[static_cast<std::size_t>(k)].blocking;
  // CPU clock first and wall clock last, so the wall duration excludes
  // the CPU-clock reads.
  const std::int64_t cpu = blocking ? thread_cpu_ns() : 0;
  t_stack.push_back(Open{++g_next_id, k, now_ns(), cpu, 0});
  if (k == Kind::world_run) g_run_span = t_stack.back().id;
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  const Open o = t_stack.back();
  t_stack.pop_back();
  const std::int64_t dur = end - o.start_ns;
  const std::int64_t own = kKinds[static_cast<std::size_t>(o.kind)].blocking
                               ? thread_cpu_ns() - o.start_cpu_ns
                               : dur;
  std::uint32_t parent = t_adopted;
  if (!t_stack.empty()) {
    parent = t_stack.back().id;
    t_stack.back().child_ns += own;
  }
  if (o.kind == Kind::world_run) g_run_span = 0;
  const double self_s = static_cast<double>(own - o.child_ns) / 1e9;
  KindStats& ks = g_stats.kinds[static_cast<std::size_t>(o.kind)];
  ++ks.count;
  ks.total_s += static_cast<double>(dur) / 1e9;
  ks.self_s += self_s;
  if (ks.samples_ns.size() < kMaxSamplesPerKind) {
    ks.samples_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(dur, 0xffffffffLL)));
  }
  g_stats.layer_self_s[static_cast<std::size_t>(kind_layer(o.kind))] += self_s;
  ++g_stats.spans;
  if (g_records.size() < g_keep_cap) {
    g_records.push_back(Record{o.id, parent, t_tid, o.kind, o.start_ns, end});
    ++g_stats.kept;
  }
}

void adopt_parent(int thread_index) {
  t_tid = static_cast<std::uint32_t>(thread_index);
  t_adopted = g_run_span;
}

bool write_chrome(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = g_records.empty() ? 0 : g_records.front().start_ns;
  for (const Record& r : g_records) base = std::min(base, r.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"parent\":%u}}",
                 i == 0 ? "" : ",", kind_name(r.kind),
                 layer_name(kind_layer(r.kind)), r.tid,
                 static_cast<double>(r.start_ns - base) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.id,
                 r.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
