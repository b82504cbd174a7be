#include "mpi/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

namespace mvflow::mpi::ckpt {

namespace serial = util::serial;

std::string section_name(std::uint32_t tag) {
  switch (tag) {
    case kSecConfig: return "config";
    case kSecWorkload: return "workload";
    case kSecBarrier: return "barrier";
    case kSecEngine: return "engine";
    case kSecFabric: return "fabric";
    case kSecDevices: return "devices";
    case kSecMetrics: return "metrics";
    case kSecTrace: return "trace";
  }
  return "unknown(0x" + std::to_string(tag) + ")";
}

namespace {

// ---- WorldConfig <-> bytes -------------------------------------------

void encode_config(serial::BufWriter& w, const WorldConfig& cfg,
                   bool trace_armed) {
  w.i32(cfg.num_ranks);
  w.b(cfg.on_demand_connections);
  w.i64(cfg.max_sim_time.count());
  w.b(trace_armed);

  const flowctl::Config& f = cfg.flow;
  w.u8(static_cast<std::uint8_t>(f.scheme));
  w.i32(f.prepost);
  w.i32(f.ecm_threshold);
  w.i32(f.growth_step);
  w.b(f.exponential_growth);
  w.i32(f.max_prepost);

  const ib::FabricConfig& fb = cfg.fabric;
  w.i64(fb.rnr_timeout.count());
  w.i64(fb.transport_timeout.count());
  w.i32(fb.transport_retry_limit);

  const ib::FaultConfig& ft = fb.fault;
  w.u64(ft.seed);
  w.f64(ft.loss_prob);
  w.f64(ft.corrupt_prob);
  w.u64(ft.flaps.size());
  for (const ib::LinkFlap& lf : ft.flaps) {
    w.i32(lf.node);
    w.i64(lf.down.count());
    w.i64(lf.up.count());
  }
  w.u64(ft.scripted.size());
  for (const ib::ScriptedFault& sf : ft.scripted) {
    w.i32(sf.src_node);
    w.i32(sf.dst_node);
    w.i32(sf.kind);
    w.u64(sf.skip);
    w.b(sf.corrupt);
  }

  w.b(cfg.device.auto_reconnect);
}

void decode_config(serial::BufReader& r, WorldConfig& cfg, bool& trace_armed) {
  cfg.num_ranks = r.i32("num_ranks");
  cfg.on_demand_connections = r.b("on_demand_connections");
  cfg.max_sim_time = sim::Duration(r.i64("max_sim_time"));
  trace_armed = r.b("trace_armed");

  flowctl::Config& f = cfg.flow;
  f.scheme = static_cast<flowctl::Scheme>(r.u8("flow.scheme"));
  f.prepost = r.i32("flow.prepost");
  f.ecm_threshold = r.i32("flow.ecm_threshold");
  f.growth_step = r.i32("flow.growth_step");
  f.exponential_growth = r.b("flow.exponential_growth");
  f.max_prepost = r.i32("flow.max_prepost");

  ib::FabricConfig& fb = cfg.fabric;
  fb.rnr_timeout = sim::Duration(r.i64("fabric.rnr_timeout"));
  fb.transport_timeout = sim::Duration(r.i64("fabric.transport_timeout"));
  fb.transport_retry_limit = r.i32("fabric.transport_retry_limit");

  ib::FaultConfig& ft = fb.fault;
  ft.seed = r.u64("fault.seed");
  ft.loss_prob = r.f64("fault.loss_prob");
  ft.corrupt_prob = r.f64("fault.corrupt_prob");
  ft.flaps.clear();
  const std::uint64_t nflaps = r.u64("fault.flaps.count");
  for (std::uint64_t i = 0; i < nflaps; ++i) {
    ib::LinkFlap lf;
    lf.node = r.i32("flap.node");
    lf.down = sim::TimePoint(sim::Duration(r.i64("flap.down")));
    lf.up = sim::TimePoint(sim::Duration(r.i64("flap.up")));
    ft.flaps.push_back(lf);
  }
  ft.scripted.clear();
  const std::uint64_t nscripted = r.u64("fault.scripted.count");
  for (std::uint64_t i = 0; i < nscripted; ++i) {
    ib::ScriptedFault sf;
    sf.src_node = r.i32("scripted.src_node");
    sf.dst_node = r.i32("scripted.dst_node");
    sf.kind = r.i32("scripted.kind");
    sf.skip = r.u64("scripted.skip");
    sf.corrupt = r.b("scripted.corrupt");
    ft.scripted.push_back(sf);
  }

  cfg.device.auto_reconnect = r.b("device.auto_reconnect");
}

// ---- state sections ---------------------------------------------------

serial::Section make_section(std::uint32_t tag, serial::BufWriter&& w) {
  return serial::Section{tag, w.take()};
}

/// The five live-state sections (engine/fabric/devices/metrics/trace),
/// serialized from the running world. Shared by capture() and the restore
/// audit, which is what makes the audit byte-exact by construction: both
/// sides go through the exact same serializers.
std::vector<serial::Section> capture_state_sections(World& world) {
  std::vector<serial::Section> out;

  serial::BufWriter eng;
  world.engine().serialize_state(eng);
  out.push_back(make_section(kSecEngine, std::move(eng)));

  serial::BufWriter fab;
  world.fabric().serialize_state(fab);
  out.push_back(make_section(kSecFabric, std::move(fab)));

  serial::BufWriter dev;
  dev.i32(world.num_ranks());
  for (Rank rk = 0; rk < world.num_ranks(); ++rk) {
    world.device(rk).serialize_state(dev);
  }
  out.push_back(make_section(kSecDevices, std::move(dev)));

  serial::BufWriter met;
  const obs::Snapshot snap = world.metrics().snapshot();
  met.u64(snap.values.size());
  for (const auto& [name, value] : snap.values) {
    met.str(name);
    met.f64(value);
  }
  out.push_back(make_section(kSecMetrics, std::move(met)));

  serial::BufWriter trc;
  world.recorder().serialize_state(trc);
  out.push_back(make_section(kSecTrace, std::move(trc)));

  return out;
}

std::string checkpoint_file_path(const std::string& base, std::uint64_t k,
                                 bool multiple) {
  return multiple ? base + "." + std::to_string(k) : base;
}

/// Byte-compare the snapshot's state sections against the replayed world.
void audit(World& world, const WorldSnapshot& snap) {
  const std::vector<serial::Section> live = capture_state_sections(world);
  for (const serial::Section& want : snap.state) {
    const serial::Section* have = nullptr;
    for (const serial::Section& s : live) {
      if (s.tag == want.tag) {
        have = &s;
        break;
      }
    }
    if (have == nullptr) {
      throw serial::SnapshotError("restore audit: replayed world has no \"" +
                                  section_name(want.tag) + "\" section");
    }
    if (have->bytes == want.bytes) continue;
    std::size_t off = 0;
    const std::size_t n = std::min(have->bytes.size(), want.bytes.size());
    while (off < n && have->bytes[off] == want.bytes[off]) ++off;
    throw serial::SnapshotError(
        "restore audit: \"" + section_name(want.tag) +
        "\" section diverged from the checkpoint (snapshot " +
        std::to_string(want.bytes.size()) + " bytes, replay " +
        std::to_string(have->bytes.size()) + " bytes, first difference at " +
        "byte " + std::to_string(off) +
        ") — the replay is not bit-identical");
  }
}

}  // namespace

WorldSnapshot capture(World& world, const WorkloadSpec& spec) {
  WorldSnapshot snap;
  snap.config = world.config();
  snap.trace_armed = world.recorder().enabled();
  snap.workload = spec;
  snap.barrier = world.executed_events();
  snap.state = capture_state_sections(world);
  return snap;
}

std::vector<std::byte> encode(const WorldSnapshot& snap) {
  std::vector<serial::Section> sections;

  serial::BufWriter cfg;
  encode_config(cfg, snap.config, snap.trace_armed);
  sections.push_back(make_section(kSecConfig, std::move(cfg)));

  serial::BufWriter wk;
  wk.str(snap.workload.name);
  wk.u64(snap.workload.params.size());
  for (const auto& [key, value] : snap.workload.params) {
    wk.str(key);
    wk.i64(value);
  }
  sections.push_back(make_section(kSecWorkload, std::move(wk)));

  serial::BufWriter bar;
  bar.u64(snap.barrier);
  sections.push_back(make_section(kSecBarrier, std::move(bar)));

  for (const serial::Section& s : snap.state) sections.push_back(s);
  return serial::frame_sections(sections);
}

WorldSnapshot decode(const std::vector<std::byte>& file) {
  const std::vector<serial::Section> sections = serial::parse_sections(file);
  const auto need = [&sections](std::uint32_t tag) -> const serial::Section& {
    const serial::Section* s = serial::find_section(sections, tag);
    if (s == nullptr) {
      throw serial::SnapshotError("snapshot is missing its \"" +
                                  section_name(tag) + "\" section");
    }
    return *s;
  };

  WorldSnapshot snap;
  {
    const serial::Section& s = need(kSecConfig);
    serial::BufReader r(s.bytes);
    decode_config(r, snap.config, snap.trace_armed);
    // Replays never inherit the capturing process's export paths.
    snap.config.run = exp::RunConfig{};
  }
  {
    const serial::Section& s = need(kSecWorkload);
    serial::BufReader r(s.bytes);
    snap.workload.name = r.str("workload.name");
    const std::uint64_t n = r.u64("workload.params.count");
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key = r.str("workload.param.key");
      const std::int64_t value = r.i64("workload.param.value");
      snap.workload.params[std::move(key)] = value;
    }
  }
  {
    const serial::Section& s = need(kSecBarrier);
    serial::BufReader r(s.bytes);
    snap.barrier = r.u64("barrier");
  }
  for (const serial::Section& s : sections) {
    if (s.tag == kSecEngine || s.tag == kSecFabric || s.tag == kSecDevices ||
        s.tag == kSecMetrics || s.tag == kSecTrace) {
      snap.state.push_back(s);
    }
  }
  if (snap.state.empty()) {
    throw serial::SnapshotError("snapshot carries no state sections");
  }
  return snap;
}

void write_snapshot(const WorldSnapshot& snap, const std::string& path) {
  serial::write_file_atomic(path, encode(snap));
}

WorldSnapshot read_snapshot(const std::string& path) {
  return decode(serial::read_file(path));
}

bool RestoreOptions::parse_checkpoint(const std::string& request) {
  checkpoint_path.clear();
  checkpoint_events.clear();
  const std::size_t at = request.rfind('@');
  if (at == std::string::npos || at == 0 || at + 1 == request.size())
    return false;
  std::vector<std::uint64_t> events;
  const std::string_view list = std::string_view(request).substr(at + 1);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    // The whole token is one unsigned count: no sign, no trailing bytes.
    const std::string_view tok = list.substr(pos, comma - pos);
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc{} || end != tok.data() + tok.size()) return false;
    events.push_back(v);
    pos = comma + 1;
  }
  checkpoint_path = request.substr(0, at);
  checkpoint_events = std::move(events);
  return true;
}

namespace {

/// Arm a watchpoint that writes a snapshot of `world`, running the
/// registered workload `spec`, at each requested executed-event count past
/// the events already executed, and notes the count in `written`. One
/// event writes exactly the requested path; several write "<path>.<k>"
/// each.
void arm_checkpoints(World& world, const WorkloadSpec& spec,
                     const RestoreOptions& opts,
                     std::vector<std::uint64_t>& written) {
  const bool multiple = opts.checkpoint_events.size() > 1;
  for (const std::uint64_t k : opts.checkpoint_events) {
    if (k <= world.executed_events()) continue;
    const std::string file =
        checkpoint_file_path(opts.checkpoint_path, k, multiple);
    world.engine().set_watchpoint(k, [&world, spec, file, k, &written] {
      write_snapshot(capture(world, spec), file);
      written.push_back(k);
    });
  }
}

RunResult run_world(World& world, const WorkloadSpec& spec,
                    const RestoreOptions& opts,
                    const WorldSnapshot* audit_against) {
  bool audited = false;
  std::vector<std::uint64_t> written;
  if (audit_against != nullptr) {
    world.engine().set_watchpoint(
        audit_against->barrier,
        [&world, &spec, audit_against, &opts, &audited, &written] {
          audit(world, *audit_against);
          audited = true;
          arm_checkpoints(world, spec, opts, written);
        });
  } else {
    arm_checkpoints(world, spec, opts, written);
  }
  if (opts.kill_at > 0) {
    world.engine().set_watchpoint(opts.kill_at,
                                  [&world] { world.abort_run(); });
  }

  RunResult out;
  out.elapsed = world.run(make_workload(spec));
  if (audit_against != nullptr && !audited) {
    throw serial::SnapshotError(
        "restore replay finished after " +
        std::to_string(world.executed_events()) +
        " events without reaching the checkpoint barrier (" +
        std::to_string(audit_against->barrier) +
        ") — wrong workload or diverged run");
  }
  // A count the run never reached — past its end or its kill, or at or
  // below a restore's barrier — wrote nothing: the request fails.
  for (const std::uint64_t k : opts.checkpoint_events) {
    if (std::find(written.begin(), written.end(), k) != written.end()) continue;
    throw std::runtime_error(
        "checkpoint " + opts.checkpoint_path + "@" + std::to_string(k) +
        " was never written: the run went from event " +
        std::to_string(audit_against != nullptr ? audit_against->barrier : 0) +
        " to " + std::to_string(world.executed_events()) +
        (world.aborted() ? " (killed)" : ""));
  }
  out.aborted = world.aborted();
  out.metrics = world.metrics().snapshot();
  out.stats = world.collect_stats();
  return out;
}

}  // namespace

RunResult restore_run(const WorldSnapshot& snap, const RestoreOptions& opts) {
  World world(snap.config);
  if (snap.trace_armed) world.recorder().enable();
  return run_world(world, snap.workload, opts, &snap);
}

RunResult run_reference(const WorldConfig& cfg, const WorkloadSpec& spec,
                        const RestoreOptions& opts) {
  World world(cfg);
  return run_world(world, spec, opts, nullptr);
}

}  // namespace mvflow::mpi::ckpt
