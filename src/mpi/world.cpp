#include "mpi/world.hpp"

#include <algorithm>
#include <sstream>

#include "mpi/checkpoint.hpp"
#include "mpi/communicator.hpp"
#include "obs/audit.hpp"
#include "obs/recorder.hpp"
#include "sim/process.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace mvflow::mpi {

std::uint64_t WorldStats::total_ecm() const { return flow_totals.ecm_sent; }

std::uint64_t WorldStats::total_messages() const {
  return flow_totals.total_messages();
}

std::uint64_t WorldStats::total_backlogged() const {
  return flow_totals.backlog_entered;
}

std::uint64_t WorldStats::total_rnr_naks() const {
  return qp_totals.rnr_naks_received;
}

std::uint64_t WorldStats::total_retransmitted_messages() const {
  return qp_totals.retransmitted_messages;
}

int WorldStats::max_posted_buffers() const { return flow_totals.max_posted; }

World::World(WorldConfig cfg) : cfg_(cfg) {
  util::require(cfg_.num_ranks >= 1, "need at least one rank");

  fabric_ = std::make_unique<ib::Fabric>(engine_, cfg_.fabric, cfg_.num_ranks);

  // Requested exports arm the fabric's recorder for this world's lifetime.
  // The profile needs every instant, so it records an unbounded stream
  // whatever ring capacity a trace export asked for.
  if (cfg_.run.prof_enabled()) {
    recorder().enable(obs::FlightRecorder::kUnbounded);
  } else if (cfg_.run.trace_enabled()) {
    recorder().enable(cfg_.run.trace_capacity != 0
                          ? cfg_.run.trace_capacity
                          : obs::FlightRecorder::kDefaultCapacity);
  }

  metrics_.add_source("engine.", [this](const obs::MetricsRegistry::EmitFn& e) {
    engine_.perf_stats().visit(e);
  });
  metrics_.add_source("fabric.", [this](const obs::MetricsRegistry::EmitFn& e) {
    fabric_->stats().visit(e);
  });
  metrics_.add_source("msg_pool.", [this](const obs::MetricsRegistry::EmitFn& e) {
    fabric_->msg_pool_stats().visit(e);
  });
  // Views of the stream, computed at snapshot time and only over an
  // unbounded one: latency.* always emits its 21 names, all zero unless
  // the recorder keeps every instant; prof.* emits nothing then, so a world
  // without a profile pays no replay.
  metrics_.add_source("latency.", [this](const obs::MetricsRegistry::EmitFn& e) {
    obs::latency_view(fabric_->recorder().stream()).visit(e);
  });
  metrics_.add_source("prof.", [this](const obs::MetricsRegistry::EmitFn& e) {
    if (fabric_->recorder().unbounded()) obs::emit_metrics(prof_analysis(), e);
  });

  devices_.reserve(static_cast<std::size_t>(cfg_.num_ranks));
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    devices_.push_back(std::make_unique<Device>(*this, r));
  }
  if (!cfg_.on_demand_connections) {
    // The paper's MPI sets up a reliable connection between every pair of
    // processes during initialization.
    for (Rank a = 0; a < cfg_.num_ranks; ++a) {
      for (Rank b = a; b < cfg_.num_ranks; ++b) {
        wire_pair(a, b);
      }
    }
  }
}

obs::ProfileAnalysis World::prof_analysis() const {
  return obs::analyze(fabric_->recorder().stream());
}

obs::CounterBooks World::counter_books() const {
  const WorldStats st = collect_stats();
  obs::CounterBooks b;
  b.wire_msgs = st.flow_totals.total_messages();
  b.backlog_dispatched = st.flow_totals.backlog_dispatched;
  b.qp_sends = st.qp_totals.messages_sent;
  return b;
}

void World::wire_pair(Rank a, Rank b) {
  ib::QueuePair& qa = device(a).create_endpoint(b);
  if (a == b) {
    ib::Fabric::connect_loopback(qa);
    device(a).activate_endpoint(b);
    return;
  }
  ib::QueuePair& qb = device(b).create_endpoint(a);
  ib::Fabric::connect(qa, qb);
  device(a).activate_endpoint(b);
  device(b).activate_endpoint(a);
}

void World::recover_pair(Rank a, Rank b) {
  Device& da = device(a);
  Device& db = device(b);
  if (!da.endpoint_recovering(b) && !db.endpoint_recovering(a)) return;
  da.prepare_reconnect(b);
  if (a == b) {
    ib::Fabric::connect_loopback(da.endpoint_qp(b));
    da.finish_reconnect(b, da.flow(b).current_posted());
    return;
  }
  db.prepare_reconnect(a);
  ib::Fabric::connect(da.endpoint_qp(b), db.endpoint_qp(a));
  // Each side's send credits restart from the pool the *other* side just
  // reposted.
  const int posted_at_b = db.flow(a).current_posted();
  const int posted_at_a = da.flow(b).current_posted();
  da.finish_reconnect(b, posted_at_b);
  db.finish_reconnect(a, posted_at_a);
}

sim::Duration World::run(const RankBody& body) {
  std::vector<RankBody> bodies(static_cast<std::size_t>(cfg_.num_ranks), body);
  return run(bodies);
}

sim::Duration World::run_workload() {
  util::require(workload_.has_value(),
                "run_workload requires set_workload first");
  return run(make_workload(*workload_));
}

sim::Duration World::run(const std::vector<RankBody>& bodies) {
  util::check(!ran_, "World::run may only be called once");
  util::require(static_cast<int>(bodies.size()) == cfg_.num_ranks,
                "one body per rank required");
  ran_ = true;

  std::vector<sim::TimePoint> finish(static_cast<std::size_t>(cfg_.num_ranks));
  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(bodies.size());
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    const auto& body = bodies[static_cast<std::size_t>(r)];
    procs.push_back(std::make_unique<sim::Process>(
        engine_, "rank" + std::to_string(r),
        [this, r, &body, &finish](sim::Process& p) {
          Device& dev = device(r);
          dev.bind_process(p);
          Communicator comm(*this, dev, p);
          body(comm);
          finish[static_cast<std::size_t>(r)] = engine_.now();
          // Finalize barrier (as MPI_Finalize implies): keeps every rank
          // progressing until all are done, so trailing control messages
          // (e.g. a last ECM) still find buffers and get consumed instead
          // of spinning in hardware-level RNR retries forever.
          if (cfg_.num_ranks > 1 && !cfg_.on_demand_connections) comm.barrier();
        }));
  }

  // An MVFLOW_CHECKPOINT request is honoured only for registered
  // workloads: a snapshot must record how to *replay* the run, and an
  // ad-hoc closure body has no replayable identity.
  if (cfg_.run.checkpoint_enabled() && workload_.has_value()) {
    ckpt::arm_checkpoints(*this, cfg_.run.checkpoint_path,
                          cfg_.run.checkpoint_events);
  }

  // Progress watchdog (DESIGN.md §15): a self-rescheduling poll event.
  if (cfg_.run.watchdog_enabled()) {
    const sim::Duration horizon =
        sim::microseconds(cfg_.run.watchdog_horizon_us);
    watchdog_ = std::make_unique<sim::Watchdog>(horizon);
    const sim::Duration period = std::max(horizon / 4, sim::microseconds(1));
    engine_.schedule_after(period, [this, period] { watchdog_poll(period); });
  }

  // Safety net against modeled livelocks (e.g. infinite RNR retry against
  // a stopped rank): bound the simulated time. An invariant / watchdog
  // violation (or any engine-context exception) still flushes the
  // configured exports before propagating — the evidence of a failing run
  // is worth more than a clean one's.
  try {
    engine_.run_until(sim::TimePoint(cfg_.max_sim_time));
  } catch (...) {
    procs.clear();  // unwind the rank fibers before touching exports
    flush_exports();
    throw;
  }

  if (abort_requested_) {
    // Simulated crash (World::abort_run): kill the rank processes where
    // they stand and report the time reached — exactly what a process
    // death mid-flight leaves behind. No deadlock diagnosis, but the
    // configured exports still flush: the crash investigator needs them.
    procs.clear();
    elapsed_ = engine_.now();
    flush_exports();
    return elapsed_;
  }

  if (engine_.pending_events() > 0) {
    flush_exports();
    throw DeadlockError("simulation exceeded max_sim_time (livelock?)");
  }

  std::string blocked;
  for (const auto& p : procs) {
    if (!p->finished()) {
      if (!blocked.empty()) blocked += ", ";
      blocked += p->name();
    }
  }
  if (!blocked.empty()) {
    procs.clear();  // unwind the stuck ranks before throwing
    flush_exports();
    throw DeadlockError("simulation drained with blocked ranks: " + blocked);
  }

  elapsed_ = sim::Duration::zero();
  for (auto t : finish) elapsed_ = std::max(elapsed_, t);

  // Final invariant sweep over the settled world: every in-flight term of
  // the conservation equation must have landed by now.
  if (cfg_.run.audit) audit_sweep();

  flush_exports();
  return elapsed_;
}

void World::flush_exports() {
  if (exports_flushed_) return;
  exports_flushed_ = true;
  // Config-driven exports (the RunConfig snapshot of MVFLOW_METRICS /
  // MVFLOW_TRACE / MVFLOW_TRACE_CSV): a metrics snapshot, the Chrome
  // trace, and the credit/backlog CSV, each gated on its own path.
  if (!cfg_.run.metrics_path.empty() &&
      !metrics_.snapshot().write_json(cfg_.run.metrics_path)) {
    util::Logger::write(util::LogLevel::error, "obs",
                        "cannot write metrics " + cfg_.run.metrics_path);
  }
  // The profile analysis feeds two artifacts: the $MVFLOW_PROF JSON and the
  // Chrome-trace flow arrows. Replay once, use for both.
  const bool arrows =
      recorder().unbounded() && !cfg_.run.trace_path.empty();
  obs::ProfileAnalysis analysis;
  if (cfg_.run.prof_enabled() || arrows) analysis = prof_analysis();
  if (cfg_.run.prof_enabled() &&
      !obs::write_profile(cfg_.run.prof_path, analysis, "run")) {
    util::Logger::write(util::LogLevel::error, "obs",
                        "cannot write profile " + cfg_.run.prof_path);
  }
  if (!cfg_.run.trace_path.empty()) {
    // With a profile armed the trace gains sender→receiver flow arrows
    // (ph:"s"/"f"), one per joined wire message.
    const bool ok =
        arrows ? recorder().export_chrome_trace(cfg_.run.trace_path,
                                                obs::flow_events(analysis))
               : recorder().export_chrome_trace(cfg_.run.trace_path);
    if (!ok) {
      util::Logger::write(util::LogLevel::error, "obs",
                          "cannot write trace file " + cfg_.run.trace_path);
    }
  }
  if (!cfg_.run.trace_csv_path.empty() &&
      !recorder().export_credit_csv(cfg_.run.trace_csv_path)) {
    util::Logger::write(util::LogLevel::error, "obs",
                        "cannot write credit CSV " + cfg_.run.trace_csv_path);
  }
}

// ------------------------------------------------------ invariant auditor --

void World::audit_pair(Rank a, Rank b) {
  Device& da = device(a);
  Device& db = device(b);
  if (!da.has_endpoint(b) || !db.has_endpoint(a)) return;
  const Device::EndpointProbe pa = da.probe(b);  // a's endpoint toward b
  const Device::EndpointProbe pb = db.probe(a);  // b's endpoint toward a
  if (!pa.active || !pb.active) return;
  const bool disturbed =
      pa.failed || pa.recovering || pb.failed || pb.recovering;

  // Backlog books never pause: entered == dispatched + failed + depth must
  // hold through faults too (fail_endpoint closes them as it clears).
  const auto books = [](Rank src, Rank dst, const flowctl::Counters& c,
                        const Device::EndpointProbe& p) {
    obs::BacklogBooks bb;
    bb.src = src;
    bb.dst = dst;
    bb.entered = c.backlog_entered;
    bb.dispatched = c.backlog_dispatched;
    bb.failed = c.backlog_failed;
    bb.depth = p.backlog_depth;
    obs::audit_backlog_books(bb);
  };
  books(a, b, da.flow(b).counters(), pa);
  if (a != b) books(b, a, db.flow(a).counters(), pb);

  // Buffer accounting per endpoint. Safe even on a failed endpoint (the
  // errored QP flushed its queue, which the ledger counts); skipped only
  // mid-reconnect, where the fresh QP's ledger restarts while the pool
  // carries over.
  const auto buffers = [](Rank owner, Rank peer, std::int64_t posted,
                          const Device::EndpointProbe& p) {
    if (p.recovering) return;
    obs::EndpointBuffers eb;
    eb.owner = owner;
    eb.peer = peer;
    eb.slots = p.slots;
    eb.retired = p.retired_slots;
    eb.current_posted = posted;
    eb.wqes_posted = p.wqes_posted;
    eb.wqes_completed = p.wqes_completed;
    eb.wqes_flushed = p.wqes_flushed;
    eb.recvq_depth = p.recvq_depth;
    eb.assembly_holds_wqe = p.assembly_holds_wqe;
    obs::audit_buffer_accounting(eb);
  };
  buffers(a, b, da.flow(b).current_posted(), pa);
  if (a != b) buffers(b, a, db.flow(a).current_posted(), pb);

  // Delivery window: the receiver may never be ahead of the sender. A
  // reconnect replay rewinds nothing (tx_seq is monotonic) but the check
  // pauses while recovery is mid-rebuild.
  if (!disturbed) {
    obs::DeliveryWindow dw;
    dw.src = a;
    dw.dst = b;
    dw.tx_seq = pa.tx_seq;
    dw.rx_seq = pb.rx_seq;
    obs::audit_delivery_window(dw);
    if (a != b) {
      dw.src = b;
      dw.dst = a;
      dw.tx_seq = pb.tx_seq;
      dw.rx_seq = pa.rx_seq;
      obs::audit_delivery_window(dw);
    }
  }

  // Credit conservation (DESIGN.md §15). The hardware scheme keeps no
  // MPI-level ledger (every aud_* counter stays zero by design), and a
  // direction touching a failed / mid-reconnect endpoint is in a declared
  // inconsistent window — both skip.
  if (cfg_.flow.scheme == flowctl::Scheme::hardware || disturbed) return;
  const auto conserve = [this](Rank src, Rank dst,
                               const flowctl::ConnectionFlow& tx,
                               const flowctl::ConnectionFlow& rx) {
    obs::ConnCredit cc;
    cc.src = src;
    cc.dst = dst;
    cc.scheme = std::string(flowctl::to_string(cfg_.flow.scheme));
    cc.credits = tx.credits();
    cc.consumed = tx.aud_consumed();
    cc.received = tx.aud_received();
    cc.pending_return = rx.pending_return_credits();
    cc.delivered = rx.aud_delivered();
    cc.granted = rx.aud_granted();
    cc.posted = rx.current_posted();
    obs::audit_credit_conservation(cc);
  };
  conserve(a, b, da.flow(b), db.flow(a));
  if (a != b) conserve(b, a, db.flow(a), da.flow(b));
}

void World::audit_sweep() {
  for (Rank a = 0; a < cfg_.num_ranks; ++a) {
    for (Rank b : device(a).peers()) {
      if (b >= a) audit_pair(a, b);
    }
  }
}

// ------------------------------------------------------ progress watchdog --

std::vector<sim::WatchdogSample> World::watchdog_samples() const {
  std::vector<sim::WatchdogSample> out;
  for (const auto& dev : devices_) {
    for (Rank peer : dev->peers()) {
      const Device::EndpointProbe p = dev->probe(peer);
      if (!p.active || p.failed) continue;
      const flowctl::Counters& c = dev->flow(peer).counters();
      sim::WatchdogSample s;
      s.src = dev->rank();
      s.dst = peer;
      s.backlog = p.backlog_depth;
      s.progress = c.credited_sent + c.ecm_sent +
                   dev->qp_stats(peer).retransmitted_messages;
      out.push_back(s);
    }
  }
  return out;
}

void World::watchdog_poll(sim::Duration period) {
  if (auto stall = watchdog_->observe(engine_.now(), watchdog_samples())) {
    handle_stall(*stall);
  }
  // Stop polling once the queue is otherwise empty: a drained run must
  // still terminate, and the blocked-ranks DeadlockError diagnosis stays
  // the authority on true deadlocks.
  if (engine_.pending_events() > 0) {
    engine_.schedule_after(period, [this, period] { watchdog_poll(period); });
  }
}

void World::handle_stall(const sim::WatchdogStall& stall) {
  // Wait-for summary: what each side of the stuck connection is blocked on,
  // straight from the probes — the first thing a human wants from a hang.
  std::ostringstream os;
  os << "no credited send / ECM / retransmit for "
     << stall.stalled_for.count() << " ns (horizon "
     << watchdog_->horizon().count() << " ns); backlog=" << stall.backlog
     << " progress=" << stall.progress;
  const auto describe = [&os](const char* label,
                              const Device::EndpointProbe& p) {
    os << "; " << label << ": backlog=" << p.backlog_depth
       << " recvq=" << p.recvq_depth << " retired=" << p.retired_slots << "/"
       << p.slots << (p.famine_rts_inflight ? " famine-rts" : "")
       << (p.retx_armed ? " retx-armed" : "")
       << (p.rnr_waiting ? " rnr-waiting" : "")
       << (p.recovering ? " recovering" : "") << (p.failed ? " failed" : "");
  };
  Device& src_dev = device(stall.src);
  if (src_dev.has_endpoint(stall.dst)) {
    describe("sender", src_dev.probe(stall.dst));
    os << " credits=" << src_dev.flow(stall.dst).credits();
  }
  Device& dst_dev = device(stall.dst);
  if (stall.src != stall.dst && dst_dev.has_endpoint(stall.src)) {
    describe("receiver", dst_dev.probe(stall.src));
    os << " pending_return=" << dst_dev.flow(stall.src).pending_return_credits();
  }
  const std::string detail = os.str();
  util::Logger::write(util::LogLevel::error, "watchdog",
                      "stall on " + std::to_string(stall.src) + "->" +
                          std::to_string(stall.dst) + ": " + detail);

  // Stall artifacts: a full metrics snapshot, and (when configured and the
  // workload is registered) a best-effort world checkpoint. The capture
  // runs mid-event rather than at an armed watchpoint, so it is a
  // diagnostic artifact — the restore audit's bit-exactness guarantee
  // applies only to checkpoints taken at a watchpoint (DESIGN.md §13).
  if (!cfg_.run.watchdog_dump_path.empty() &&
      !metrics_.snapshot().write_json(cfg_.run.watchdog_dump_path)) {
    util::Logger::write(util::LogLevel::error, "watchdog",
                        "cannot write metrics " + cfg_.run.watchdog_dump_path);
  }
  if (!cfg_.run.watchdog_ckpt_path.empty() && workload_.has_value()) {
    try {
      ckpt::write_snapshot(ckpt::capture(*this), cfg_.run.watchdog_ckpt_path);
    } catch (const std::exception& e) {
      util::Logger::write(util::LogLevel::error, "watchdog",
                          std::string("stall checkpoint failed: ") + e.what());
    }
  }
  flush_exports();
  throw sim::WatchdogError(stall.src, stall.dst, detail);
}

WorldStats World::collect_stats() const {
  WorldStats out;
  out.elapsed = elapsed_;
  out.fabric = fabric_->stats();
  for (const auto& dev : devices_) {
    out.devices.push_back(dev->stats());
    for (Rank peer : dev->peers()) {
      ConnectionReport cr;
      cr.rank = dev->rank();
      cr.peer = peer;
      cr.flow = dev->flow(peer).counters();
      cr.qp = dev->qp_stats(peer);
      out.flow_totals.accumulate(cr.flow);
      out.qp_totals.accumulate(cr.qp);
      out.connections.push_back(cr);
    }
  }
  return out;
}

}  // namespace mvflow::mpi
