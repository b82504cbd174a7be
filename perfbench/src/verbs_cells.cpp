// verbs_ring: the 8-node RC ring of bench_sim_throughput, driven through
// the verbs calls only (no MPI, no rank processes), with transport timers
// armed. One cell drops packets so the retransmit/NAK path runs too.
#include <exception>
#include <memory>
#include <vector>

#include "cells.hpp"
#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "obs/recorder.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace mvflow;
using trace::Kind;
using trace::Span;

constexpr int kNodes = 8;

struct RingCell {
  const char* name;
  std::uint32_t bytes;
  int window;
  int reps;
  double loss_prob;
};

// Sizes span one small packet, one full-MTU packet and an 8-packet message;
// reps are sized so every cell costs a similar share of a pass.
constexpr RingCell kRingCells[] = {
    {"ring_4B_w100", 4, 100, 180, 0.0},
    {"ring_2KB_w50", 2048, 50, 300, 0.0},
    {"ring_16KB_w10", 16384, 10, 360, 0.0},
    {"ring_2KB_w50_loss", 2048, 50, 300, 2e-3},
};

void fill_pattern(std::vector<std::byte>& buf, int node, int rep) {
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(
        (i * 13 + static_cast<std::size_t>(node) * 101 +
         static_cast<std::size_t>(rep) * 7) & 0xff);
}

CellResult run_ring(const RingCell& c, std::uint64_t seed) {
  CellResult out;
  out.name = c.name;
  try {
    // World binds a (disabled) recorder on every simulation thread; do the
    // same so the instrumentation fast path is the production one.
    obs::FlightRecorder rec;
    obs::RecorderBinding rec_binding(&rec);

    const double t0 = wall_s();
    sim::Engine engine;
    ib::FabricConfig cfg;
    cfg.transport_timeout = sim::microseconds(500);
    if (c.loss_prob > 0) {
      cfg.fault.loss_prob = c.loss_prob;
      cfg.fault.seed = seed;
    }
    ib::Fabric fabric(engine, cfg, kNodes);
    std::vector<std::vector<std::byte>> txbuf(kNodes), rxbuf(kNodes);
    std::vector<ib::MemoryRegionHandle> txmr(kNodes), rxmr(kNodes);
    std::vector<std::shared_ptr<ib::CompletionQueue>> cq(kNodes);
    std::vector<std::shared_ptr<ib::QueuePair>> tx(kNodes), rx(kNodes);
    for (int i = 0; i < kNodes; ++i) {
      txbuf[i].resize(c.bytes);
      rxbuf[i].resize(c.bytes);
      ib::Hca& hca = fabric.hca(i);
      txmr[i] = hca.register_memory(txbuf[i], ib::Access::local_read);
      rxmr[i] = hca.register_memory(rxbuf[i], ib::Access::local_write);
      cq[i] = hca.create_cq();
      tx[i] = hca.create_qp(cq[i], cq[i]);
      rx[i] = hca.create_qp(cq[i], cq[i]);
    }
    for (int i = 0; i < kNodes; ++i) {
      const double c0 = wall_s();
      Span s(Kind::connect);
      ib::Fabric::connect(*tx[i], *rx[(i + 1) % kNodes]);
      out.connect_s += wall_s() - c0;
    }
    const double t1 = wall_s();
    out.setup_s = t1 - t0;

    const double cpu0 = thread_cpu_s();
    const Usage u0 = Usage::now();
    std::uint64_t hash = kFnvBasis;
    bool ok = true;
    const auto per_rep = static_cast<std::uint64_t>(2 * kNodes * c.window);
    for (int rep = 0; rep < c.reps; ++rep) {
      for (int i = 0; i < kNodes; ++i) {
        ib::RecvWr rwr;
        rwr.local_addr = rxbuf[i].data();
        rwr.length = c.bytes;
        rwr.lkey = rxmr[i].lkey;
        for (int w = 0; w < c.window; ++w) {
          Span s(Kind::post_recv);
          rx[i]->post_recv(rwr);
        }
      }
      for (int i = 0; i < kNodes; ++i) {
        fill_pattern(txbuf[i], i, rep);
        ib::SendWr swr;
        swr.local_addr = txbuf[i].data();
        swr.length = c.bytes;
        swr.lkey = txmr[i].lkey;
        for (int w = 0; w < c.window; ++w) {
          Span s(Kind::post_send);
          tx[i]->post_send(swr);
        }
      }
      {
        Span s(Kind::engine_run);
        engine.run();
      }
      std::uint64_t got = 0;
      for (int i = 0; i < kNodes; ++i) {
        for (;;) {
          std::optional<ib::Completion> wc;
          {
            Span s(Kind::poll);
            wc = cq[i]->poll();
          }
          if (!wc) break;
          ++got;
          ok = ok && wc->ok() && wc->byte_len == c.bytes;
        }
      }
      ok = ok && got == per_rep;
      out.messages += got;
      for (int i = 0; i < kNodes; ++i) {
        ok = ok && rxbuf[(i + 1) % kNodes] == txbuf[i];
        hash = fnv1a(rxbuf[(i + 1) % kNodes], hash);
      }
    }
    out.run_s = wall_s() - t1;
    out.usage = Usage::now() - u0;
    out.engine_cpu_s = thread_cpu_s() - cpu0;

    out.events = engine.executed_events();
    out.perf = engine.perf_stats();
    out.fabric = fabric.stats();
    out.payload_bytes = static_cast<std::uint64_t>(c.bytes) * out.messages / 2;
    for (int i = 0; i < kNodes; ++i) {
      out.retransmits += tx[i]->stats().retransmitted_messages;
      out.rnr_naks += tx[i]->stats().rnr_naks_received;
    }
    out.fp.fixed = {{"completions", out.messages}, {"payload_fnv", hash}};
    Fingerprint::Fields sim_fields = {
        {"elapsed_ns", static_cast<std::uint64_t>(engine.now().count())},
        {"events", out.events},
        {"packets", out.fabric.packets},
        {"wire_bytes", out.fabric.wire_bytes},
        {"retransmits", out.retransmits},
        {"rnr_naks", out.rnr_naks},
    };
    // The drop pattern, and so every timing and count below, follows the
    // seed in the lossy cell.
    auto& dst = c.loss_prob > 0 ? out.fp.seeded : out.fp.fixed;
    dst.insert(dst.end(), sim_fields.begin(), sim_fields.end());
    if (!ok) {
      out.ok = false;
      out.error = "ring completions or payloads wrong";
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

}  // namespace

std::vector<Cell> verbs_ring_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  for (const RingCell& c : kRingCells)
    cells.push_back([&c, seed] { return run_ring(c, seed); });
  return cells;
}

}  // namespace perfbench
