// Golden-determinism guard: the fig2 (latency) and fig3 (bandwidth) tables
// must be bit-identical to the outputs recorded before the pooled-scheduler
// and zero-copy-packet rework. The scheduler's (time, seq) tie-break and the
// packet path's recycle-after-completion rule together guarantee pooling
// cannot change event order; this test is the executable form of that claim.
//
// The hashes below were captured from the seed engine (std::priority_queue +
// shared_ptr cancel flags, per-message make_shared payloads) running the
// exact same table builders the bench binaries print.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "bw_figure.hpp"
#include "fig_latency.hpp"
#include "fnv1a.hpp"

namespace {

using mvflow::test::fnv1a;

// Captured from the pre-pooling engine (see file comment), as standard
// 64-bit FNV-1a of the table text, so any FNV-1a tool reproduces them from
// a bench's printed table. If a change
// legitimately alters protocol timing, re-record these from a build at the
// commit *before* the behavioral change and explain the delta in
// EXPERIMENTS.md; they must never move for a pure performance refactor.
constexpr std::uint64_t kFig2GoldenHash = 18261021981650279701ull;
constexpr std::uint64_t kFig3GoldenHash = 312572578602472281ull;

}  // namespace

TEST(GoldenDeterminism, Fig2LatencyTableBitIdentical) {
  const std::string text = mvflow::bench::build_fig2_table(/*iters=*/200)
                               .to_string();
  EXPECT_EQ(fnv1a(text), kFig2GoldenHash) << "fig2 table changed:\n" << text;
}

TEST(GoldenDeterminism, Fig3BandwidthTableBitIdentical) {
  const std::string text =
      mvflow::bench::build_bw_table(/*msg_bytes=*/4, /*prepost=*/100,
                                    /*blocking=*/true)
          .to_string();
  EXPECT_EQ(fnv1a(text), kFig3GoldenHash) << "fig3 table changed:\n" << text;
}

// The parallel sweep runner must not merely agree with itself across thread
// counts — it must reproduce the *serial golden hashes* above. Each World is
// single-threaded and fully self-contained, so spreading the independent
// cells across 4 or 8 workers cannot change a single byte of any table.
TEST(GoldenDeterminism, Fig2TableBitIdenticalAtJobs4) {
  const std::string text =
      mvflow::bench::build_fig2_table(/*iters=*/200, nullptr, /*jobs=*/4)
          .to_string();
  EXPECT_EQ(fnv1a(text), kFig2GoldenHash) << "fig2 -j4 diverged:\n" << text;
}

TEST(GoldenDeterminism, Fig2TableBitIdenticalAtJobs8) {
  const std::string text =
      mvflow::bench::build_fig2_table(/*iters=*/200, nullptr, /*jobs=*/8)
          .to_string();
  EXPECT_EQ(fnv1a(text), kFig2GoldenHash) << "fig2 -j8 diverged:\n" << text;
}

TEST(GoldenDeterminism, Fig3TableBitIdenticalAtJobs4) {
  const std::string text =
      mvflow::bench::build_bw_table(/*msg_bytes=*/4, /*prepost=*/100,
                                    /*blocking=*/true, nullptr, /*jobs=*/4)
          .to_string();
  EXPECT_EQ(fnv1a(text), kFig3GoldenHash) << "fig3 -j4 diverged:\n" << text;
}

TEST(GoldenDeterminism, Fig3TableBitIdenticalAtJobs8) {
  const std::string text =
      mvflow::bench::build_bw_table(/*msg_bytes=*/4, /*prepost=*/100,
                                    /*blocking=*/true, nullptr, /*jobs=*/8)
          .to_string();
  EXPECT_EQ(fnv1a(text), kFig3GoldenHash) << "fig3 -j8 diverged:\n" << text;
}
