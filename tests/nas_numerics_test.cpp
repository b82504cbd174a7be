// Numerical spot checks of the NAS proxies beyond their built-in
// verification: cross-scheme metric equality (flow control must never
// change answers), scale/iteration behaviour, census expectations, and a
// pin of every proxy's simulated results at Fig 10's prepost=1.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "exp/runner.hpp"
#include "nas/kernel.hpp"

using namespace mvflow;
using namespace mvflow::nas;

namespace {

KernelResult quick(App app, flowctl::Scheme scheme, int prepost, int iters = 2,
                   std::uint64_t seed = 42) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = 0;
  cfg.flow.scheme = scheme;
  cfg.flow.prepost = prepost;
  cfg.run = cfg.run.quiet();  // jobs may run concurrently: no export races
  NasParams p;
  p.iterations = iters;
  p.seed = seed;
  return run_app(app, cfg, p);
}

}  // namespace

TEST(NasNumerics, MetricsIdenticalAcrossSchemes) {
  // The metric is a pure function of the math; buffers and schemes must
  // not leak into it. This is the suite's heaviest fixture (7 apps x 3
  // scheme configs), so the 21 independent worlds run on the sweep
  // runner; assertions happen on the main thread, in app order.
  std::vector<std::function<KernelResult()>> jobs;
  for (App app : kAllApps) {
    jobs.push_back([app] { return quick(app, flowctl::Scheme::hardware, 100); });
    jobs.push_back([app] { return quick(app, flowctl::Scheme::user_static, 4); });
    jobs.push_back(
        [app] { return quick(app, flowctl::Scheme::user_dynamic, 1); });
  }
  const exp::SweepRunner runner;  // hardware concurrency
  const auto results = runner.run<KernelResult>(jobs);

  std::size_t i = 0;
  for (App app : kAllApps) {
    const auto& a = results[i];
    const auto& b = results[i + 1];
    const auto& c = results[i + 2];
    i += 3;
    EXPECT_EQ(a.metric, b.metric) << to_string(app);
    EXPECT_EQ(a.metric, c.metric) << to_string(app);
    EXPECT_TRUE(a.verified && b.verified && c.verified) << to_string(app);
  }
}

TEST(NasNumerics, LuReferenceMemoKeysOnIterations) {
  // LU verifies against a serial reference that is computed once per
  // (grid, iterations) and kept for the life of the process. A reference
  // reused across iteration counts would fail the 3-iteration run.
  const auto two = quick(App::lu, flowctl::Scheme::user_static, 100, 2);
  const auto three = quick(App::lu, flowctl::Scheme::user_static, 100, 3);
  const auto two_again = quick(App::lu, flowctl::Scheme::user_static, 100, 2);
  EXPECT_TRUE(two.verified);
  EXPECT_TRUE(three.verified);
  EXPECT_TRUE(two_again.verified);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(two.metric),
            std::bit_cast<std::uint64_t>(two_again.metric));
  EXPECT_NE(two.metric, three.metric);
}

TEST(NasGolden, SimulationMatchesParent) {
  // Every proxy at its default NasParams under the static scheme at
  // prepost=1 (Fig 10's stress regime). The numbers were recorded before
  // the proxies' host-side math was tabulated (LU's sin table and memoized
  // serial reference, FT's phase table, IS's counting sort): that work
  // must change neither simulated time nor traffic. IS's and CG's metrics
  // are libm-free, so their bits are pinned too; the others go through
  // sin/cos, whose last bit may differ between CPUs.
  struct Golden {
    App app;
    std::int64_t elapsed_ns;
    std::uint64_t messages;
    std::uint64_t ecm;
    int max_posted;
    std::optional<std::uint64_t> metric_bits;
  };
  const Golden golden[] = {
      {App::is, 7207608, 5236, 1918, 1, 0x40f4172000000000ull},
      {App::ft, 10166356, 3436, 934, 1, std::nullopt},
      {App::lu, 9603651, 30824, 15412, 1, std::nullopt},
      {App::cg, 1530926, 2288, 1144, 1, 0x3cc88c792421242eull},
      {App::mg, 7323561, 14644, 5930, 1, std::nullopt},
      {App::bt, 4257719, 7928, 3964, 1, std::nullopt},
      {App::sp, 3923301, 7928, 3964, 1, std::nullopt},
  };
  std::vector<std::function<KernelResult()>> jobs;
  for (const Golden& g : golden) {
    jobs.push_back([app = g.app] {
      mpi::WorldConfig cfg;
      cfg.num_ranks = 0;
      cfg.flow.scheme = flowctl::Scheme::user_static;
      cfg.flow.prepost = 1;
      cfg.run = cfg.run.quiet();
      return run_app(app, cfg, NasParams{});
    });
  }
  const exp::SweepRunner runner;
  const auto results = runner.run<KernelResult>(jobs);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const Golden& g = golden[i];
    const KernelResult& r = results[i];
    EXPECT_TRUE(r.verified) << to_string(g.app);
    EXPECT_EQ(r.elapsed.count(), g.elapsed_ns) << to_string(g.app);
    EXPECT_EQ(r.stats.total_messages(), g.messages) << to_string(g.app);
    EXPECT_EQ(r.stats.total_ecm(), g.ecm) << to_string(g.app);
    EXPECT_EQ(r.stats.max_posted_buffers(), g.max_posted) << to_string(g.app);
    if (g.metric_bits) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.metric), *g.metric_bits)
          << to_string(g.app);
    }
  }
}

TEST(NasNumerics, SeedChangesIsAndFtData) {
  const auto a = quick(App::is, flowctl::Scheme::user_static, 100, 2, 1);
  const auto b = quick(App::is, flowctl::Scheme::user_static, 100, 2, 2);
  EXPECT_TRUE(a.verified && b.verified);
  // IS metric counts sorted keys: equal totals. FT differs per seed.
  const auto fa = quick(App::ft, flowctl::Scheme::user_static, 100, 2, 1);
  const auto fb = quick(App::ft, flowctl::Scheme::user_static, 100, 2, 2);
  EXPECT_TRUE(fa.verified && fb.verified);
  EXPECT_LT(fa.metric, 1e-9);
  EXPECT_LT(fb.metric, 1e-9);
}

TEST(NasNumerics, CgResidualShrinksWithIterations) {
  const auto few = quick(App::cg, flowctl::Scheme::user_static, 100, 4);
  const auto many = quick(App::cg, flowctl::Scheme::user_static, 100, 16);
  EXPECT_LT(many.metric, few.metric);
  EXPECT_LT(many.metric, 1e-6);
}

TEST(NasNumerics, MgResidualRatioShrinksWithCycles) {
  const auto few = quick(App::mg, flowctl::Scheme::user_static, 100, 2);
  const auto many = quick(App::mg, flowctl::Scheme::user_static, 100, 5);
  EXPECT_LT(many.metric, few.metric);
  EXPECT_LT(many.metric, 0.05);
}

TEST(NasNumerics, LuChecksumFiniteAndIterationDependent) {
  const auto a = quick(App::lu, flowctl::Scheme::user_static, 100, 2);
  const auto b = quick(App::lu, flowctl::Scheme::user_static, 100, 4);
  EXPECT_TRUE(std::isfinite(a.metric));
  EXPECT_NE(a.metric, b.metric);
}

TEST(NasCensus, RendezvousHeavyAppsMoveMostBytesByRdma) {
  // FT's transposes are large: the fabric must carry far more data bytes
  // than the MPI message count suggests (RDMA payloads, not eager copies).
  const auto ft = quick(App::ft, flowctl::Scheme::user_static, 100, 3);
  EXPECT_GT(ft.stats.fabric.wire_bytes,
            ft.stats.total_messages() * 2048)
      << "bulk payload must dwarf the 2KB control-buffer traffic";
}

TEST(NasCensus, LuIsSmallMessageDominated) {
  const auto lu = quick(App::lu, flowctl::Scheme::user_static, 100, 3);
  const double bytes_per_msg =
      static_cast<double>(lu.stats.fabric.wire_bytes) /
      static_cast<double>(lu.stats.total_messages());
  EXPECT_LT(bytes_per_msg, 512.0) << "LU's traffic is boundary lines";
}

TEST(NasCensus, HardwareAndUserLevelSendSameDataMessages) {
  // Scheme changes control traffic (ECMs), never data traffic.
  const auto hw = quick(App::cg, flowctl::Scheme::hardware, 100, 3);
  const auto st = quick(App::cg, flowctl::Scheme::user_static, 100, 3);
  std::uint64_t hw_credited = 0, st_credited = 0;
  for (const auto& c : hw.stats.connections) hw_credited += c.flow.credited_sent;
  for (const auto& c : st.stats.connections) st_credited += c.flow.credited_sent;
  EXPECT_EQ(hw_credited, st_credited);
}
