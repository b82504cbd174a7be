// pt2pt_window and nas_prepost1: MPI worlds on the serial engine, timed from
// outside World construction, World::run and the calls the rank bodies make.
#include <cstring>
#include <exception>
#include <optional>
#include <thread>

#include "cells.hpp"
#include "exp/run_config.hpp"
#include "mpi/communicator.hpp"
#include "mpi/world.hpp"
#include "nas/kernel.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mvflow;
using trace::Kind;
using trace::Span;

mpi::WorldConfig world_config(flowctl::Scheme scheme, int prepost, int ranks) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = ranks;
  cfg.flow.scheme = scheme;
  cfg.flow.prepost = prepost;
  // No export, audit, checkpoint or watchdog: the benchmark measures the
  // simulator, not its instrumentation.
  cfg.run = exp::RunConfig{};
  return cfg;
}

constexpr flowctl::Scheme kSchemes[] = {flowctl::Scheme::hardware,
                                        flowctl::Scheme::user_static,
                                        flowctl::Scheme::user_dynamic};

std::string scheme_tag(flowctl::Scheme s) {
  return std::string(flowctl::to_string(s));
}

/// Build `cfg`'s world, run `body` on every rank, and fill the host and
/// simulated fields every MPI cell reports. `body` returns false when the
/// rank saw wrong data.
template <typename Body>
CellResult run_world(std::string name, mpi::WorldConfig cfg, Body&& body) {
  CellResult out;
  out.name = std::move(name);
  const auto ranks = static_cast<std::size_t>(cfg.num_ranks);
  std::vector<double> rank_cpu(ranks, 0.0);
  std::vector<char> rank_ok(ranks, 1);
  const std::thread::id engine_thread = std::this_thread::get_id();
  try {
    const double t0 = wall_s();
    std::optional<mpi::World> world;
    {
      Span s(Kind::world_new);
      world.emplace(cfg);
    }
    const double t1 = wall_s();
    const double cpu0 = thread_cpu_s();
    const Usage u0 = Usage::now();
    sim::Duration elapsed{0};
    {
      Span s(Kind::world_run);
      elapsed = world->run([&](mpi::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        trace::adopt_parent(comm.rank() + 1);
        // A rank body that runs on the engine thread itself has its CPU
        // in the engine thread's clock already.
        const bool own_thread = std::this_thread::get_id() != engine_thread;
        const double c0 = own_thread ? thread_cpu_s() : 0.0;
        rank_ok[r] = body(comm) ? 1 : 0;
        if (own_thread) rank_cpu[r] = thread_cpu_s() - c0;
      });
    }
    const double t2 = wall_s();
    out.usage = Usage::now() - u0;
    out.engine_cpu_s = thread_cpu_s() - cpu0;
    out.setup_s = t1 - t0;
    out.run_s = t2 - t1;
    for (double c : rank_cpu) out.rank_cpu_s += c;

    const mpi::WorldStats st = world->collect_stats();
    out.events = world->executed_events();
    out.perf = world->engine().perf_stats();
    out.fabric = st.fabric;
    out.flow = st.flow_totals;
    out.messages = st.total_messages();
    out.retransmits = st.total_retransmitted_messages();
    out.rnr_naks = st.total_rnr_naks();
    std::uint64_t converted = 0;
    for (const mpi::DeviceStats& d : st.devices) {
      out.payload_bytes += d.payload_bytes_sent;
      converted += d.small_converted_to_rndv;
    }
    out.fp.fixed = {
        {"elapsed_ns", static_cast<std::uint64_t>(elapsed.count())},
        {"events", out.events},
        {"messages", out.messages},
        {"ecm", st.total_ecm()},
        {"backlogged", st.total_backlogged()},
        {"optimistic_rts", st.flow_totals.optimistic_rts},
        {"converted_to_rndv", converted},
        {"growth_events", st.flow_totals.growth_events},
        {"max_posted_buffers",
         static_cast<std::uint64_t>(st.max_posted_buffers())},
        {"rnr_naks", out.rnr_naks},
        {"retransmits", out.retransmits},
        {"packets", st.fabric.packets},
        {"wire_bytes", st.fabric.wire_bytes},
    };
    const double t3 = wall_s();
    world.reset();
    out.teardown_s = wall_s() - t3;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    return out;
  }
  for (std::size_t r = 0; r < ranks; ++r) {
    if (rank_ok[r] == 0) {
      out.ok = false;
      out.error = "rank " + std::to_string(r) + " received wrong data";
    }
  }
  return out;
}

// ---------------------------------------------------------- pt2pt_window --

// Below, at, just past and far past the prepost of 10: the points where
// the three schemes part ways in Figures 5-8.
constexpr int kWindows[] = {1, 10, 16, 100};
constexpr int kPrepost = 10;
constexpr int kReps = 20;  // as bench_fig3..8, so cells match those figures

struct BwCell {
  std::size_t bytes;
  int window;
  bool blocking;
  flowctl::Scheme scheme;
};

/// Content of every message of repetition `rep`; blocking sends also stamp
/// their index within the window into the first four bytes.
void fill_pattern(std::vector<std::byte>& buf, int rep) {
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(
        (i * 31 + static_cast<std::size_t>(rep) * 17 + 1) & 0xff);
}
void stamp(std::vector<std::byte>& buf, std::uint32_t i) {
  std::memcpy(buf.data(), &i, sizeof i);
}
std::uint32_t stamp_of(const std::vector<std::byte>& buf) {
  std::uint32_t i = 0;
  std::memcpy(&i, buf.data(), sizeof i);
  return i;
}

/// The paper's bandwidth test (§6.2.2) as bench::run_bandwidth runs it:
/// rank 0 pushes `window` messages, rank 1 replies after consuming them,
/// `kReps` times. Each Communicator call is a span.
bool bw_body(mpi::Communicator& comm, const BwCell& c, std::uint64_t& hash) {
  const std::size_t n = c.bytes;
  std::vector<std::byte> payload(n);
  std::vector<std::byte> ackbuf(1);
  std::vector<std::byte> rxbuf(n);
  std::vector<std::byte> expect(n);
  std::vector<mpi::RequestPtr> reqs;
  reqs.reserve(static_cast<std::size_t>(c.window));
  bool ok = true;
  for (int rep = 0; rep < kReps; ++rep) {
    if (comm.rank() == 0) {
      fill_pattern(payload, rep);
      if (c.blocking) {
        for (int i = 0; i < c.window; ++i) {
          stamp(payload, static_cast<std::uint32_t>(i));
          Span s(Kind::send);
          comm.send(payload, 1, 0);
        }
      } else {
        reqs.clear();
        for (int i = 0; i < c.window; ++i) {
          Span s(Kind::isend);
          reqs.push_back(comm.isend(payload, 1, 0));
        }
        Span s(Kind::wait_all);
        comm.wait_all(reqs);
      }
      Span s(Kind::recv);
      comm.recv(ackbuf, 1, 1);
    } else {
      if (c.blocking) {
        for (int i = 0; i < c.window; ++i) {
          {
            Span s(Kind::recv);
            comm.recv(rxbuf, 0, 0);
          }
          ok = ok && stamp_of(rxbuf) == static_cast<std::uint32_t>(i);
        }
      } else {
        reqs.clear();
        for (int i = 0; i < c.window; ++i) {
          Span s(Kind::irecv);
          reqs.push_back(comm.irecv(rxbuf, 0, 0));
        }
        Span s(Kind::wait_all);
        comm.wait_all(reqs);
      }
      fill_pattern(expect, rep);
      if (c.blocking) stamp(expect, static_cast<std::uint32_t>(c.window - 1));
      ok = ok && expect == rxbuf;
      hash = fnv1a(rxbuf, hash);
      Span s(Kind::send);
      comm.send(ackbuf, 0, 1);
    }
  }
  return ok;
}

CellResult run_bw_cell(const BwCell& c) {
  const std::string name = "bw_" + std::to_string(c.bytes) + "B_w" +
                           std::to_string(c.window) +
                           (c.blocking ? "_blocking_" : "_nonblocking_") +
                           scheme_tag(c.scheme);
  std::uint64_t hash = kFnvBasis;
  CellResult out = run_world(name, world_config(c.scheme, kPrepost, 2),
                             [&](mpi::Communicator& comm) {
                               return bw_body(comm, c, hash);
                             });
  out.fp.fixed.emplace_back("payload_fnv", hash);
  return out;
}

// ---------------------------------------------------------- nas_prepost1 --

struct NasApp {
  nas::App app;
  const char* tag;
  Kind span;
  nas::AppOutcome (*run)(mpi::Communicator&, const nas::NasParams&);
};

constexpr NasApp kNasApps[] = {
    {nas::App::lu, "lu", Kind::nas_lu, &nas::run_lu},
    {nas::App::mg, "mg", Kind::nas_mg, &nas::run_mg},
    {nas::App::cg, "cg", Kind::nas_cg, &nas::run_cg},
};

CellResult run_nas_cell(const NasApp& a, flowctl::Scheme scheme,
                        const nas::NasParams& params) {
  nas::AppOutcome outcome;
  // As nas::run_app builds it, so cells match bench_fig10's prepost=1 runs.
  CellResult out = run_world(
      std::string("nas_") + a.tag + "_" + scheme_tag(scheme),
      world_config(scheme, 1, nas::default_ranks(a.app)),
      [&](mpi::Communicator& comm) {
        nas::AppOutcome local;
        {
          Span s(a.span);
          local = a.run(comm, params);
        }
        if (comm.rank() == 0) outcome = local;
        return true;
      });
  out.group = a.tag;
  out.fp.fixed.emplace_back("verified", outcome.verified ? 1 : 0);
  if (out.ok && !outcome.verified) {
    out.ok = false;
    out.error = "NAS verification failed";
  }
  return out;
}

}  // namespace

std::vector<Cell> pt2pt_window_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  const std::size_t eager_max = mpi::DeviceConfig{}.eager_max_payload();
  for (const std::size_t bytes :
       {std::size_t{4}, eager_max, std::size_t{32768}}) {
    for (const bool blocking : {true, false}) {
      for (const int window : kWindows) {
        for (const auto scheme : kSchemes) {
          const BwCell c{bytes, window, blocking, scheme};
          cells.push_back([c] { return run_bw_cell(c); });
        }
      }
    }
  }
  // The seed only orders the cells. Each cell builds its own world, so the
  // order changes nothing but the heap a cell starts from (see the
  // heap_dependent fields in oracle.json).
  util::Xoshiro256 rng(seed);
  for (std::size_t i = cells.size(); i > 1; --i)
    std::swap(cells[i - 1], cells[rng() % i]);
  return cells;
}

std::vector<Cell> nas_prepost1_cells(std::uint64_t seed) {
  nas::NasParams params;
  params.seed = seed;
  std::vector<Cell> cells;
  for (const NasApp& a : kNasApps) {
    for (const auto scheme : kSchemes) {
      cells.push_back(
          [&a, scheme, params] { return run_nas_cell(a, scheme, params); });
    }
  }
  return cells;
}

CellResult run_small_mpi_cell() {
  return run_bw_cell(BwCell{4, 100, true, flowctl::Scheme::hardware});
}

}  // namespace perfbench
