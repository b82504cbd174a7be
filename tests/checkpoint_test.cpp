// Checkpoint/restart coverage (DESIGN.md §13): container round-trip,
// crash-safety negatives (truncated / bit-flipped / wrong-version /
// bad-magic files must be rejected with a diagnostic, never half-applied),
// the golden checkpoint-determinism property (uninterrupted run ==
// checkpoint-at-k + restore, in-process and across processes via the
// mvflow_ckpt binary), the churn kill->restore->reconnect path, and the
// restore audit's divergence detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/run_config.hpp"
#include "mpi/checkpoint.hpp"
#include "mpi/workload.hpp"
#include "mpi/world.hpp"
#include "util/serial.hpp"

namespace {

using namespace mvflow;
namespace ckpt = mpi::ckpt;
using util::serial::SnapshotError;

std::string tmp_path(const std::string& leaf) {
  return ::testing::TempDir() + "mvflow_ckpt_test_" + leaf;
}

mpi::WorkloadSpec pingpong_spec(std::int64_t iters = 120) {
  mpi::WorkloadSpec spec;
  spec.name = "pingpong";
  spec.params["iters"] = iters;
  spec.params["bytes"] = 64;
  return spec;
}

mpi::WorldConfig small_world(int ranks = 2) {
  mpi::WorldConfig cfg;
  cfg.run = exp::RunConfig{};  // tests never honour ambient env exports
  cfg.num_ranks = ranks;
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  cfg.flow.prepost = 10;
  return cfg;
}

std::uint64_t executed_events(const obs::Snapshot& m) {
  return static_cast<std::uint64_t>(m.get("engine.executed", 0.0));
}

/// Two runs are bit-identical iff the flattened metrics registries (every
/// counter, stat, histogram bucket) serialize to the same JSON text.
void expect_identical(const ckpt::RunResult& a, const ckpt::RunResult& b) {
  EXPECT_EQ(a.elapsed.count(), b.elapsed.count());
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
}

/// Write one checkpoint from a from-scratch run and return its path.
std::string write_checkpoint(const mpi::WorldConfig& cfg,
                             const mpi::WorkloadSpec& spec, std::uint64_t k,
                             const std::string& leaf) {
  const std::string path = tmp_path(leaf);
  ckpt::RestoreOptions opts;
  opts.checkpoint_path = path;
  opts.checkpoint_events = {k};
  ckpt::run_reference(cfg, spec, opts);
  return path;
}

std::vector<std::byte> read_bytes(const std::string& path) {
  return util::serial::read_file(path);
}

void write_bytes(const std::string& path, const std::vector<std::byte>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

// ---- container round-trip --------------------------------------------

TEST(CheckpointContainer, EncodeDecodeRoundTrip) {
  const std::string path =
      write_checkpoint(small_world(), pingpong_spec(), 400, "roundtrip.ck");
  const std::vector<std::byte> file = read_bytes(path);
  const ckpt::WorldSnapshot snap = ckpt::decode(file);

  EXPECT_EQ(snap.workload.name, "pingpong");
  EXPECT_EQ(snap.workload.param("iters", 0), 120);
  EXPECT_GE(snap.barrier, 400u);
  EXPECT_EQ(snap.config.num_ranks, 2);
  EXPECT_EQ(snap.config.flow.scheme, flowctl::Scheme::user_dynamic);
  EXPECT_EQ(snap.state.size(), 5u);  // engine/fabric/devices/metrics/trace

  // decode() must be lossless: re-encoding reproduces the file byte-exactly.
  EXPECT_EQ(ckpt::encode(snap), file);
}

// Every setting the config section carries survives encode/decode. Each
// is set away from its default, so a field the encoder drops, or the
// decoder reads into the wrong slot, shows up as a mismatch.
TEST(CheckpointContainer, ConfigRoundTripsEverySetting) {
  ckpt::WorldSnapshot snap;
  mpi::WorldConfig& cfg = snap.config;
  cfg.num_ranks = 5;
  cfg.on_demand_connections = true;
  cfg.max_sim_time = sim::milliseconds(1234);
  cfg.flow.scheme = flowctl::Scheme::hardware;
  cfg.flow.prepost = 7;
  cfg.flow.ecm_threshold = 3;
  cfg.flow.growth_step = 4;
  cfg.flow.exponential_growth = true;
  cfg.flow.max_prepost = 99;
  cfg.fabric.rnr_timeout = sim::microseconds(77);
  cfg.fabric.transport_timeout = sim::microseconds(31);
  cfg.fabric.transport_retry_limit = -1;
  cfg.fabric.fault.seed = 0x1234abcd;
  cfg.fabric.fault.loss_prob = 0.125;
  cfg.fabric.fault.corrupt_prob = 0.0625;
  cfg.fabric.fault.flaps.push_back(
      {3, sim::TimePoint{sim::microseconds(10)},
       sim::TimePoint{sim::microseconds(20)}});
  cfg.fabric.fault.scripted.push_back({1, 2, 0, 6, true});
  cfg.device.auto_reconnect = true;
  snap.trace_armed = true;
  snap.workload = pingpong_spec();
  snap.barrier = 42;
  snap.state.push_back({ckpt::kSecEngine, std::vector<std::byte>(3)});

  const ckpt::WorldSnapshot got = ckpt::decode(ckpt::encode(snap));
  const mpi::WorldConfig& c = got.config;
  EXPECT_EQ(c.num_ranks, 5);
  EXPECT_TRUE(c.on_demand_connections);
  EXPECT_EQ(c.max_sim_time, sim::milliseconds(1234));
  EXPECT_TRUE(got.trace_armed);
  EXPECT_EQ(c.flow.scheme, flowctl::Scheme::hardware);
  EXPECT_EQ(c.flow.prepost, 7);
  EXPECT_EQ(c.flow.ecm_threshold, 3);
  EXPECT_EQ(c.flow.growth_step, 4);
  EXPECT_TRUE(c.flow.exponential_growth);
  EXPECT_EQ(c.flow.max_prepost, 99);
  EXPECT_EQ(c.fabric.rnr_timeout, sim::microseconds(77));
  EXPECT_EQ(c.fabric.transport_timeout, sim::microseconds(31));
  EXPECT_EQ(c.fabric.transport_retry_limit, -1);
  EXPECT_EQ(c.fabric.fault.seed, 0x1234abcdu);
  EXPECT_EQ(c.fabric.fault.loss_prob, 0.125);
  EXPECT_EQ(c.fabric.fault.corrupt_prob, 0.0625);
  ASSERT_EQ(c.fabric.fault.flaps.size(), 1u);
  EXPECT_EQ(c.fabric.fault.flaps[0].node, 3);
  EXPECT_EQ(c.fabric.fault.flaps[0].down, sim::microseconds(10));
  EXPECT_EQ(c.fabric.fault.flaps[0].up, sim::microseconds(20));
  ASSERT_EQ(c.fabric.fault.scripted.size(), 1u);
  const ib::ScriptedFault& sf = c.fabric.fault.scripted[0];
  EXPECT_EQ(sf.src_node, 1);
  EXPECT_EQ(sf.dst_node, 2);
  EXPECT_EQ(sf.kind, 0);
  EXPECT_EQ(sf.skip, 6u);
  EXPECT_TRUE(sf.corrupt);
  EXPECT_TRUE(c.device.auto_reconnect);
}

TEST(CheckpointContainer, InspectablePerSectionNames) {
  EXPECT_EQ(ckpt::section_name(ckpt::kSecEngine), "engine");
  EXPECT_EQ(ckpt::section_name(ckpt::kSecDevices), "devices");
  EXPECT_NE(ckpt::section_name(0xdeadbeef).find("unknown"),
            std::string::npos);
}

// ---- crash-safety negatives ------------------------------------------

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // One source snapshot per test: ctest -j runs these tests at the same
    // time, each in its own process, so a shared file would race.
    const std::string leaf =
        std::string("corrupt_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".ck";
    path_ = write_checkpoint(small_world(), pingpong_spec(), 300, leaf);
    blob_ = read_bytes(path_);
    ASSERT_GT(blob_.size(), 64u);
  }

  /// Expect read_snapshot(path) to throw a SnapshotError whose message
  /// contains `needle` — the "clear diagnostic" part of the contract.
  void expect_rejected(const std::string& mutated_leaf,
                       const std::vector<std::byte>& bytes,
                       const std::string& needle) {
    const std::string bad = tmp_path(mutated_leaf);
    write_bytes(bad, bytes);
    try {
      ckpt::read_snapshot(bad);
      FAIL() << "corrupted snapshot was accepted";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "diagnostic was: " << e.what();
    }
  }

  std::string path_;
  std::vector<std::byte> blob_;
};

TEST_F(CheckpointCorruption, TruncatedFileRejected) {
  std::vector<std::byte> cut(blob_.begin(),
                             blob_.begin() + blob_.size() / 2);
  expect_rejected("truncated.ck", cut, "payload");
}

TEST_F(CheckpointCorruption, TruncatedHeaderRejected) {
  std::vector<std::byte> cut(blob_.begin(), blob_.begin() + 10);
  expect_rejected("headless.ck", cut, "header");
}

TEST_F(CheckpointCorruption, BitFlipRejected) {
  std::vector<std::byte> flipped = blob_;
  flipped[flipped.size() / 2] ^= std::byte{0x10};
  expect_rejected("bitflip.ck", flipped, "CRC");
}

TEST_F(CheckpointCorruption, WrongVersionRejected) {
  std::vector<std::byte> wrong = blob_;
  wrong[8] = std::byte{0x7f};  // version u32 follows the 8-byte magic
  expect_rejected("version.ck", wrong, "version");
}

TEST_F(CheckpointCorruption, BadMagicRejected) {
  std::vector<std::byte> wrong = blob_;
  wrong[0] = std::byte{'X'};
  expect_rejected("magic.ck", wrong, "magic");
}

TEST_F(CheckpointCorruption, MissingFileRejected) {
  EXPECT_THROW(ckpt::read_snapshot(tmp_path("does_not_exist.ck")),
               SnapshotError);
}

// ---- determinism ------------------------------------------------------

// Arming checkpoints must not perturb the run it observes: the world with
// a checkpoint watchpoint finishes bit-identical to one without.
TEST(CheckpointDeterminism, CaptureIsNonInvasive) {
  const ckpt::RunResult plain =
      ckpt::run_reference(small_world(), pingpong_spec());
  ckpt::RestoreOptions opts;
  opts.checkpoint_path = tmp_path("noninvasive.ck");
  opts.checkpoint_events = {500};
  const ckpt::RunResult observed =
      ckpt::run_reference(small_world(), pingpong_spec(), opts);
  expect_identical(plain, observed);
}

// The tentpole property, in-process: for several split points k, the run
// that checkpoints at k and the fresh world restored from that snapshot
// finish with identical elapsed time and identical metrics registries.
TEST(CheckpointDeterminism, RestoreBitIdenticalAtSeveralK) {
  const ckpt::RunResult ref =
      ckpt::run_reference(small_world(), pingpong_spec());
  const std::uint64_t total = executed_events(ref.metrics);
  ASSERT_GT(total, 100u);

  for (const std::uint64_t k :
       {total / 5, total / 2, (total * 4) / 5}) {
    const std::string path = write_checkpoint(
        small_world(), pingpong_spec(), k, "split_" + std::to_string(k));
    const ckpt::WorldSnapshot snap = ckpt::read_snapshot(path);
    EXPECT_GE(snap.barrier, k);
    const ckpt::RunResult resumed = ckpt::restore_run(snap);
    expect_identical(ref, resumed);
  }
}

// The same property on a world whose QP is mid-RNR-rewind at the splits:
// the hardware scheme at prepost 1 keeps the sender's QP full of rewound
// retransmissions, so the snapshots carry them in the QP section and the
// restored run must replay the bulk rewind exactly.
TEST(CheckpointDeterminism, RestoreMidRnrRewindIsBitIdentical) {
  mpi::WorldConfig cfg = small_world();
  cfg.flow.scheme = flowctl::Scheme::hardware;
  cfg.flow.prepost = 1;
  mpi::WorkloadSpec spec;
  spec.name = "bw";
  spec.params["bytes"] = 4;
  spec.params["window"] = 32;
  spec.params["reps"] = 6;
  spec.params["blocking"] = 0;

  const ckpt::RunResult ref = ckpt::run_reference(cfg, spec);
  ASSERT_GE(ref.metrics.get("rank0.peer1.qp.rnr_naks_received", 0.0), 100.0);
  const std::uint64_t total = executed_events(ref.metrics);
  ASSERT_GT(total, 100u);

  for (const std::uint64_t k : {total / 5, total / 2, (total * 4) / 5}) {
    const std::string path =
        write_checkpoint(cfg, spec, k, "rnr_split_" + std::to_string(k));
    const ckpt::RunResult resumed = ckpt::restore_run(ckpt::read_snapshot(path));
    expect_identical(ref, resumed);
  }
}

// Same property with the flight recorder armed: its stream is part of the
// audited state, so replay must reproduce it event-for-event.
TEST(CheckpointDeterminism, RestoreWithTraceArmed) {
  mpi::WorldConfig cfg = small_world();
  cfg.run.trace_path = "/dev/null";  // arms the recorder via the config path

  ckpt::RestoreOptions opts;
  opts.checkpoint_path = tmp_path("traced.ck");
  opts.checkpoint_events = {600};
  const ckpt::RunResult ref =
      ckpt::run_reference(cfg, pingpong_spec(), opts);

  const ckpt::WorldSnapshot snap = ckpt::read_snapshot(opts.checkpoint_path);
  EXPECT_TRUE(snap.trace_armed);
  const ckpt::RunResult resumed = ckpt::restore_run(snap);
  EXPECT_EQ(ref.elapsed.count(), resumed.elapsed.count());
  EXPECT_EQ(ref.metrics.to_json(), resumed.metrics.to_json());
}

// A chain of checkpoints: restore from k1 while writing k2, then restore
// k2 — both generations must land on the reference outcome.
TEST(CheckpointDeterminism, CheckpointOfARestoredRun) {
  const ckpt::RunResult ref =
      ckpt::run_reference(small_world(), pingpong_spec());
  const std::uint64_t total = executed_events(ref.metrics);

  const std::string first = write_checkpoint(small_world(), pingpong_spec(),
                                             total / 4, "chain1.ck");
  ckpt::RestoreOptions opts;
  opts.checkpoint_path = tmp_path("chain2.ck");
  opts.checkpoint_events = {(total * 3) / 4};
  const ckpt::RunResult mid =
      ckpt::restore_run(ckpt::read_snapshot(first), opts);
  expect_identical(ref, mid);

  const ckpt::RunResult last =
      ckpt::restore_run(ckpt::read_snapshot(opts.checkpoint_path));
  expect_identical(ref, last);
}

// ---- audit divergence -------------------------------------------------

// A snapshot whose state bytes do not match the replay must be refused
// with a diagnostic naming the diverging section. Tampering with a state
// section in memory (the container CRC only guards the file) is the
// cheapest way to force that divergence deliberately.
TEST(CheckpointAudit, TamperedStateSectionIsNamedAndRejected) {
  const std::string path = write_checkpoint(small_world(), pingpong_spec(),
                                            500, "tamper.ck");
  ckpt::WorldSnapshot snap = ckpt::read_snapshot(path);
  for (auto& s : snap.state) {
    if (s.tag != ckpt::kSecDevices) continue;
    ASSERT_FALSE(s.bytes.empty());
    s.bytes[s.bytes.size() / 2] ^= std::byte{0x01};
  }
  try {
    ckpt::restore_run(snap);
    FAIL() << "diverged restore was accepted";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("devices"), std::string::npos) << what;
    EXPECT_NE(what.find("diverged"), std::string::npos) << what;
  }
}

// A barrier beyond the run's total events can never be reached — the
// restore must fail loudly, not return a half-replayed world.
TEST(CheckpointAudit, UnreachableBarrierRejected) {
  const std::string path = write_checkpoint(small_world(), pingpong_spec(),
                                            400, "unreachable.ck");
  ckpt::WorldSnapshot snap = ckpt::read_snapshot(path);
  snap.barrier = 100000000;  // far past the workload's lifetime
  EXPECT_THROW(ckpt::restore_run(snap), SnapshotError);
}

// An unknown workload name must be rejected with the registry listing.
TEST(CheckpointAudit, UnknownWorkloadRejected) {
  const std::string path = write_checkpoint(small_world(), pingpong_spec(),
                                            400, "unknown_wl.ck");
  ckpt::WorldSnapshot snap = ckpt::read_snapshot(path);
  snap.workload.name = "no_such_workload";
  try {
    ckpt::restore_run(snap);
    FAIL() << "unknown workload was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_workload"),
              std::string::npos);
  }
}

// ---- churn ------------------------------------------------------------

// Mid-flight kill, then restore from the snapshot written before the
// crash: the resumed world must complete and match the uninterrupted
// faulted run bit-for-bit, with auto-reconnect healing any QP errors.
TEST(CheckpointChurn, KillRestoreMatchesUninterrupted) {
  mpi::WorldConfig cfg = small_world(3);
  cfg.fabric.transport_timeout = sim::microseconds(30);
  cfg.fabric.transport_retry_limit = 3;
  cfg.fabric.fault.loss_prob = 0.005;
  cfg.fabric.fault.seed = 0xdeadfa11;
  cfg.device.auto_reconnect = true;

  mpi::WorkloadSpec spec;
  spec.name = "soak";
  spec.params["rounds"] = 48;
  spec.params["bytes"] = 256;

  const ckpt::RunResult ref = ckpt::run_reference(cfg, spec);
  const std::uint64_t total = executed_events(ref.metrics);
  ASSERT_GT(total, 1000u);

  // Crash run: snapshot at 1/3, die at 2/3.
  ckpt::RestoreOptions crash;
  crash.checkpoint_path = tmp_path("churn.ck");
  crash.checkpoint_events = {total / 3};
  crash.kill_at = (2 * total) / 3;
  const ckpt::RunResult crashed = ckpt::run_reference(cfg, spec, crash);
  EXPECT_TRUE(crashed.aborted);
  EXPECT_LT(executed_events(crashed.metrics), total);

  const ckpt::RunResult resumed =
      ckpt::restore_run(ckpt::read_snapshot(crash.checkpoint_path));
  EXPECT_FALSE(resumed.aborted);
  expect_identical(ref, resumed);
  EXPECT_GT(resumed.stats.fabric.lost_packets, 0u);
}

// ---- env plumbing -----------------------------------------------------

TEST(CheckpointEnv, ParseCheckpointRequest) {
  ckpt::RestoreOptions ro;
  EXPECT_TRUE(ro.parse_checkpoint("/tmp/x.ck@100"));
  EXPECT_EQ(ro.checkpoint_path, "/tmp/x.ck");
  ASSERT_EQ(ro.checkpoint_events.size(), 1u);
  EXPECT_EQ(ro.checkpoint_events[0], 100u);

  EXPECT_TRUE(ro.parse_checkpoint("/tmp/y.ck@10,20,30"));
  EXPECT_EQ(ro.checkpoint_events.size(), 3u);
  EXPECT_EQ(ro.checkpoint_events[2], 30u);

  EXPECT_FALSE(ro.parse_checkpoint("no-at-sign"));
  EXPECT_FALSE(ro.parse_checkpoint("/tmp/z.ck@"));
  EXPECT_FALSE(ro.parse_checkpoint("/tmp/z.ck@12,junk"));
  EXPECT_TRUE(ro.checkpoint_path.empty());

  // Each count is one whole unsigned decimal token.
  for (const char* bad :
       {"/tmp/z.ck@-1", "/tmp/z.ck@+5", "/tmp/z.ck@5x", "/tmp/z.ck@ 5",
        "/tmp/z.ck@10,", "/tmp/z.ck@,10", "/tmp/z.ck@10,-2",
        "/tmp/z.ck@18446744073709551616"}) {
    EXPECT_FALSE(ro.parse_checkpoint(bad)) << bad;
    EXPECT_TRUE(ro.checkpoint_path.empty()) << bad;
    EXPECT_TRUE(ro.checkpoint_events.empty()) << bad;
  }
  EXPECT_TRUE(ro.parse_checkpoint("/tmp/a@b.ck@18446744073709551615"));
  EXPECT_EQ(ro.checkpoint_path, "/tmp/a@b.ck");
  ASSERT_EQ(ro.checkpoint_events.size(), 1u);
  EXPECT_EQ(ro.checkpoint_events[0], 18446744073709551615u);
}

// A requested checkpoint the run never reaches fails the run and names
// the request: past the run's end, past its kill, or at or below a
// restore's barrier.
TEST(CheckpointEnv, UnreachedCheckpointFailsTheRun) {
  const auto fails_naming = [](const std::string& name, auto&& run) {
    try {
      run();
      ADD_FAILURE() << name << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name + " was never written"),
                std::string::npos)
          << e.what();
    }
  };
  const std::string past_end = tmp_path("past_end.ck");
  std::remove(past_end.c_str());
  ckpt::RestoreOptions end_opts;
  end_opts.checkpoint_path = past_end;
  end_opts.checkpoint_events = {99999999};
  fails_naming(past_end + "@99999999", [&] {
    ckpt::run_reference(small_world(), pingpong_spec(), end_opts);
  });
  EXPECT_FALSE(std::ifstream(past_end).good());

  const std::string past_kill = tmp_path("past_kill.ck");
  std::remove((past_kill + ".700").c_str());
  ckpt::RestoreOptions kill_opts;
  kill_opts.checkpoint_path = past_kill;
  kill_opts.checkpoint_events = {300, 700};
  kill_opts.kill_at = 500;
  fails_naming(past_kill + "@700", [&] {
    ckpt::run_reference(small_world(), pingpong_spec(), kill_opts);
  });
  EXPECT_TRUE(std::ifstream(past_kill + ".300").good());
  EXPECT_FALSE(std::ifstream(past_kill + ".700").good());

  const ckpt::WorldSnapshot snap = ckpt::read_snapshot(
      write_checkpoint(small_world(), pingpong_spec(), 400, "barrier.ck"));
  const std::string below = tmp_path("below_barrier.ck");
  std::remove(below.c_str());
  for (const std::uint64_t k : {std::uint64_t{300}, std::uint64_t{400}}) {
    ckpt::RestoreOptions opts;
    opts.checkpoint_path = below;
    opts.checkpoint_events = {k};
    fails_naming(below + "@" + std::to_string(k),
                 [&] { ckpt::restore_run(snap, opts); });
  }
  EXPECT_FALSE(std::ifstream(below).good());
}

// A value that does not parse in full is reported once, by name and
// value, and reads as unset; it never half-applies.
TEST(CheckpointEnv, FromEnvReportsMalformedValuesAsUnset) {
  struct Case {
    const char* var;
    const char* value;
  };
  const Case cases[] = {{"MVFLOW_WATCHDOG_US", "abc"},
                        {"MVFLOW_WATCHDOG_US", "10x"}};
  for (const Case& c : cases) {
    const std::string var = c.var;
    ::setenv(c.var, c.value, 1);
    testing::internal::CaptureStderr();
    const exp::RunConfig rc = exp::RunConfig::from_env();
    const std::string err = testing::internal::GetCapturedStderr();
    ::unsetenv(c.var);

    const std::string named = var + "=" + c.value;
    const std::size_t at = err.find(named);
    EXPECT_NE(at, std::string::npos) << named << " -> " << err;
    EXPECT_EQ(err.find(named, at + 1), std::string::npos) << err;
    EXPECT_NE(err.find("ERROR"), std::string::npos) << err;
    EXPECT_EQ(rc.watchdog_horizon_us, 0) << named;
  }

  // Well-formed values still read, silently.
  ::setenv("MVFLOW_WATCHDOG_US", "250", 1);
  testing::internal::CaptureStderr();
  const exp::RunConfig rc = exp::RunConfig::from_env();
  const std::string err = testing::internal::GetCapturedStderr();
  ::unsetenv("MVFLOW_WATCHDOG_US");
  EXPECT_EQ(err.find("MVFLOW_"), std::string::npos) << err;
  EXPECT_EQ(rc.watchdog_horizon_us, 250);
}

TEST(CheckpointEnv, WorkloadRegistry) {
  for (const char* name : {"allpairs", "bw", "hotspot", "pingpong", "soak"}) {
    EXPECT_TRUE(mpi::make_workload(mpi::WorkloadSpec{name, {}})) << name;
  }
  try {
    mpi::make_workload(mpi::WorkloadSpec{"nope", {}});
    FAIL() << "unknown workload was accepted";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"nope\""), std::string::npos) << what;
    EXPECT_NE(what.find("allpairs, bw, hotspot, pingpong, soak"),
              std::string::npos)
        << what;
  }
}

// ---- fresh process ----------------------------------------------------

#ifdef MVFLOW_CKPT_BIN

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::string all((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  return all;
}

std::string result_line(const std::string& text) {
  std::size_t pos = text.find("RESULT ");
  if (pos == std::string::npos) return "";
  const std::size_t end = text.find('\n', pos);
  return text.substr(pos, end - pos);
}

int run_cli(const std::string& args, const std::string& out_path) {
  const std::string cmd =
      std::string(MVFLOW_CKPT_BIN) + " " + args + " > " + out_path + " 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// The golden cross-process property: a run checkpointed at k in one
// process and restored in a *different* process prints the exact same
// RESULT line (events, elapsed, metrics fingerprint) as the uninterrupted
// run. This is restore-in-a-fresh-process, end to end.
TEST(CheckpointProcess, RestoreInFreshProcessIsBitIdentical) {
  const std::string ck = tmp_path("proc.ck");
  const std::string ref_out = tmp_path("proc_ref.txt");
  const std::string res_out = tmp_path("proc_res.txt");

  ASSERT_EQ(run_cli("run --workload=pingpong --iters=150 --bytes=32 "
                    "--checkpoint=" + ck + "@800",
                    ref_out), 0);
  const std::string ref_line = result_line(slurp(ref_out));
  ASSERT_FALSE(ref_line.empty());

  ASSERT_EQ(run_cli("restore " + ck, res_out), 0);
  const std::string res_line = result_line(slurp(res_out));
  EXPECT_EQ(ref_line, res_line) << "restore output:\n" << slurp(res_out);
}

// Corrupt files must be refused by the CLI with exit code 3 and a
// SNAPSHOT_ERROR diagnostic — the restore path never limps onward.
TEST(CheckpointProcess, CliRejectsCorruptSnapshotWithExit3) {
  const std::string ck = tmp_path("proc_bad.ck");
  const std::string out = tmp_path("proc_bad.txt");
  ASSERT_EQ(run_cli("run --workload=pingpong --iters=60 --checkpoint=" + ck +
                    "@300", out), 0);

  std::vector<std::byte> blob = util::serial::read_file(ck);
  blob[blob.size() - 3] ^= std::byte{0x40};
  {
    std::ofstream f(ck, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  }
  EXPECT_EQ(run_cli("restore " + ck, out), 3);
  EXPECT_NE(slurp(out).find("SNAPSHOT_ERROR"), std::string::npos);
}

// An option the command never reads must stop the CLI before it runs
// anything: exit 1 with the key named, rather than silently running a
// different experiment than the one asked for.
TEST(CheckpointProcess, CliRejectsUnreadOptionWithExit1) {
  const std::string out = tmp_path("proc_unread.txt");
  const std::string ck = tmp_path("proc_unread.ck");
  std::remove(ck.c_str());
  EXPECT_EQ(run_cli("run --workload=allpairs --ranks=4 --threads=2 "
                    "--checkpoint=" + ck + "@250",
                    out), 1);
  EXPECT_NE(slurp(out).find("--threads"), std::string::npos) << slurp(out);
  EXPECT_EQ(slurp(out).find("RESULT"), std::string::npos) << slurp(out);
  EXPECT_FALSE(std::ifstream(ck).good()) << "no snapshot may be written";

  EXPECT_EQ(run_cli("run --workload=pingpong --schedular=wheel", out), 1);
  EXPECT_NE(slurp(out).find("--schedular"), std::string::npos) << slurp(out);

  // A retired option is rejected like a typo: the engine has one
  // pending-set structure, so --scheduler has nothing left to select.
  EXPECT_EQ(run_cli("run --workload=pingpong --scheduler=heap4", out), 1);
  EXPECT_NE(slurp(out).find("--scheduler"), std::string::npos) << slurp(out);

  // So are the dynamic-decay and fork-sweep tuning flags. The restore is
  // refused before its (missing) snapshot is read: exit 1, not 3.
  EXPECT_EQ(run_cli("run --workload=pingpong --decay=1", out), 1);
  EXPECT_NE(slurp(out).find("--decay"), std::string::npos) << slurp(out);
  EXPECT_EQ(run_cli("restore " + ck + " --tune-ecm=1", out), 1);
  EXPECT_NE(slurp(out).find("--tune-ecm"), std::string::npos) << slurp(out);

  // A value must parse in full: "1O" is not read as 1.
  EXPECT_EQ(run_cli("run --workload=bw --reps=1O", out), 1);
  EXPECT_NE(slurp(out).find("--reps: '1O'"), std::string::npos) << slurp(out);
  EXPECT_EQ(slurp(out).find("RESULT"), std::string::npos) << slurp(out);
}

// A checkpoint request that cannot be met fails the command: exit 1 with
// `error:` naming the request, no RESULT line and no snapshot.
TEST(CheckpointProcess, CliRejectsUnmetCheckpointWithExit1) {
  const std::string out = tmp_path("proc_unmet.txt");
  const std::string ck = tmp_path("proc_unmet.ck");
  std::remove(ck.c_str());
  for (const std::string count : {"-1", "99999999"}) {
    const std::string request = ck + "@" + count;
    EXPECT_EQ(run_cli("run --workload=pingpong --checkpoint=" + request, out),
              1)
        << slurp(out);
    EXPECT_NE(slurp(out).find("error: "), std::string::npos) << slurp(out);
    EXPECT_NE(slurp(out).find(request), std::string::npos) << slurp(out);
    EXPECT_EQ(slurp(out).find("RESULT"), std::string::npos) << slurp(out);
    EXPECT_FALSE(std::ifstream(ck).good()) << "no snapshot may be written";
  }
}

#endif  // MVFLOW_CKPT_BIN

}  // namespace
