// Checkpoint/restart coverage (DESIGN.md §13): container round-trip,
// crash-safety negatives (truncated / bit-flipped / wrong-version /
// bad-magic files must be rejected with a diagnostic, never half-applied),
// the golden checkpoint-determinism property (uninterrupted run ==
// checkpoint-at-k + restore, in-process and across processes via the
// mvflow_ckpt binary), the checkpoint-fork sweep, the churn
// kill->restore->reconnect path, and the restore audit's divergence
// detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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

// Same property with the flight recorder armed: the trace ring is part of
// the audited state, so replay must reproduce it event-for-event.
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

// ---- fork sweep -------------------------------------------------------

// One warm snapshot, three flow-control tunings branched at the barrier.
// Results must be identical whether the branches run serially or on four
// SweepRunner threads (job-order contract), and retuning must actually
// change the downstream outcome for at least one branch.
TEST(CheckpointFork, ThreeBranchesSerialEqualsParallel) {
  mpi::WorldConfig cfg = small_world();
  cfg.flow.ecm_threshold = 5;
  cfg.flow.growth_step = 1;
  mpi::WorkloadSpec spec;
  spec.name = "bw";
  spec.params["bytes"] = 256;
  spec.params["window"] = 24;
  spec.params["reps"] = 30;

  const ckpt::RunResult ref = ckpt::run_reference(cfg, spec);
  const std::uint64_t warm = executed_events(ref.metrics) / 4;
  const std::string path =
      write_checkpoint(cfg, spec, warm, "fork.ck");

  std::vector<ckpt::ForkBranch> branches(3);
  branches[0].label = "baseline";
  branches[1].label = "eager-growth";
  branches[1].tune.ecm_threshold = 1;
  branches[1].tune.growth_step = 8;
  branches[2].label = "exp-growth";
  branches[2].tune.exponential_growth = true;
  branches[2].tune.ecm_threshold = 2;

  const auto serial = ckpt::fork_sweep(path, branches, /*jobs=*/1);
  const auto parallel = ckpt::fork_sweep(path, branches, /*jobs=*/4);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(serial[i].label, branches[i].label);
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_EQ(serial[i].elapsed.count(), parallel[i].elapsed.count());
    EXPECT_EQ(serial[i].metrics.to_json(), parallel[i].metrics.to_json());
  }
  // The untouched branch reproduces the uninterrupted reference...
  EXPECT_EQ(serial[0].elapsed.count(), ref.elapsed.count());
  EXPECT_EQ(serial[0].metrics.to_json(), ref.metrics.to_json());
  // ...and the retuned branches genuinely diverge from it.
  EXPECT_NE(serial[1].metrics.to_json(), serial[0].metrics.to_json());
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
  exp::RunConfig rc;
  EXPECT_TRUE(rc.parse_checkpoint("/tmp/x.ck@100"));
  EXPECT_EQ(rc.checkpoint_path, "/tmp/x.ck");
  ASSERT_EQ(rc.checkpoint_events.size(), 1u);
  EXPECT_EQ(rc.checkpoint_events[0], 100u);

  EXPECT_TRUE(rc.parse_checkpoint("/tmp/y.ck@10,20,30"));
  EXPECT_EQ(rc.checkpoint_events.size(), 3u);
  EXPECT_EQ(rc.checkpoint_events[2], 30u);

  EXPECT_FALSE(rc.parse_checkpoint("no-at-sign"));
  EXPECT_FALSE(rc.parse_checkpoint("/tmp/z.ck@"));
  EXPECT_FALSE(rc.parse_checkpoint("/tmp/z.ck@12,junk"));
  EXPECT_TRUE(rc.checkpoint_path.empty());
}

TEST(CheckpointEnv, WorkloadRegistry) {
  EXPECT_TRUE(mpi::workload_registered("pingpong"));
  EXPECT_TRUE(mpi::workload_registered("soak"));
  EXPECT_FALSE(mpi::workload_registered("nope"));
  EXPECT_THROW(mpi::make_workload(mpi::WorkloadSpec{"nope", {}}),
               SnapshotError);
}

// ---- scheduler seam (DESIGN.md §14) -------------------------------------
//
// The scheduler is a wall-clock knob, not simulation state: the engine
// section encodes the live pending set in canonical (t, seq) order, so a
// snapshot captured under one scheduler must audit cleanly against a
// replay under another.

mpi::WorkloadSpec allpairs_spec() {
  mpi::WorkloadSpec spec;
  spec.name = "allpairs";
  spec.params["rounds"] = 5;
  spec.params["bytes"] = 1500;
  return spec;
}

mpi::WorldConfig allpairs_world(sim::SchedKind scheduler) {
  mpi::WorldConfig cfg = small_world(/*ranks=*/4);
  cfg.scheduler = scheduler;
  return cfg;
}

TEST(CheckpointDeterminism, SchedulerAgnosticAcrossRestore) {
  // Snapshot under heap4, audit the replay under the calendar queue.
  const std::string path =
      write_checkpoint(allpairs_world(sim::SchedKind::heap4), allpairs_spec(),
                       250, "sched.ck");
  ckpt::WorldSnapshot snap = ckpt::read_snapshot(path);
  EXPECT_EQ(snap.config.scheduler, sim::SchedKind::heap4);
  snap.config.scheduler = sim::SchedKind::calendar;
  const ckpt::RunResult restored = ckpt::restore_run(snap);
  const ckpt::RunResult reference = ckpt::run_reference(
      allpairs_world(sim::SchedKind::calendar), allpairs_spec());
  expect_identical(restored, reference);
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

  // A bad value for a known option names every accepted choice.
  EXPECT_EQ(run_cli("run --workload=pingpong --scheduler=fifo", out), 1);
  EXPECT_NE(slurp(out).find("heap4|calendar|wheel"), std::string::npos)
      << slurp(out);
}

#endif  // MVFLOW_CKPT_BIN

}  // namespace
