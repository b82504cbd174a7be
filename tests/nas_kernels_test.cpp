// End-to-end NAS proxy runs: every kernel must numerically verify under
// every flow-control scheme and at both generous and tiny buffer pools —
// flow control must never change results, only timing.
#include <gtest/gtest.h>

#include <cstdint>

#include "nas/kernel.hpp"

using namespace mvflow;
using namespace mvflow::nas;

namespace {

// gtest has no printer for NasParam, so it prints the object's bytes, and
// ctest makes that printout part of every test name. The struct therefore
// has no padding: padding holds leftover memory, which made the names
// change from one test discovery to the next.
struct NasParam {
  NasParam(App a, flowctl::Scheme s, int p) : app(a), scheme(s), prepost(p) {}
  App app;
  flowctl::Scheme scheme;
  std::uint8_t spare8 = 0;
  std::uint16_t spare16 = 0;
  int prepost;
};
static_assert(sizeof(NasParam) == 12);

std::string param_name(const ::testing::TestParamInfo<NasParam>& info) {
  return std::string(to_string(info.param.app)) + "_" +
         std::string(flowctl::to_string(info.param.scheme)) + "_pre" +
         std::to_string(info.param.prepost);
}

class NasKernels : public ::testing::TestWithParam<NasParam> {};

NasParams quick_params() {
  NasParams p;
  p.iterations = 3;  // shrink for test latency; benches use defaults
  return p;
}

}  // namespace

TEST_P(NasKernels, VerifiesUnderScheme) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = 0;  // per-app default (8, BT/SP: 16)
  cfg.flow.scheme = GetParam().scheme;
  cfg.flow.prepost = GetParam().prepost;
  const KernelResult r = run_app(GetParam().app, cfg, quick_params());
  EXPECT_TRUE(r.verified) << to_string(r.app) << " metric=" << r.metric;
  EXPECT_GT(r.elapsed.count(), 0);
  EXPECT_GT(r.stats.total_messages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, NasKernels,
    ::testing::Values(
        // Generous pool, all schemes.
        NasParam{App::is, flowctl::Scheme::user_static, 100},
        NasParam{App::ft, flowctl::Scheme::user_static, 100},
        NasParam{App::lu, flowctl::Scheme::user_static, 100},
        NasParam{App::cg, flowctl::Scheme::user_static, 100},
        NasParam{App::mg, flowctl::Scheme::user_static, 100},
        NasParam{App::bt, flowctl::Scheme::user_static, 100},
        NasParam{App::sp, flowctl::Scheme::user_static, 100},
        NasParam{App::is, flowctl::Scheme::hardware, 100},
        NasParam{App::lu, flowctl::Scheme::hardware, 100},
        NasParam{App::mg, flowctl::Scheme::hardware, 100},
        NasParam{App::is, flowctl::Scheme::user_dynamic, 100},
        NasParam{App::lu, flowctl::Scheme::user_dynamic, 100},
        // Tiny pool: the paper's extreme case (prepost = 1).
        NasParam{App::is, flowctl::Scheme::user_static, 1},
        NasParam{App::lu, flowctl::Scheme::user_static, 1},
        NasParam{App::cg, flowctl::Scheme::user_static, 1},
        NasParam{App::lu, flowctl::Scheme::user_dynamic, 1},
        NasParam{App::mg, flowctl::Scheme::user_dynamic, 1},
        NasParam{App::lu, flowctl::Scheme::hardware, 1},
        NasParam{App::ft, flowctl::Scheme::hardware, 1}),
    param_name);

TEST(NasCensus, LuDominatesSmallMessageCount) {
  // LU must send far more (small) messages than FT at equal iterations —
  // the property behind the paper's Table 1 / Table 2 contrasts.
  mpi::WorldConfig cfg;
  cfg.num_ranks = 0;
  cfg.flow.prepost = 100;
  NasParams p;
  p.iterations = 3;
  const auto lu = run_app(App::lu, cfg, p);
  const auto ft = run_app(App::ft, cfg, p);
  EXPECT_GT(lu.stats.total_messages(), 3 * ft.stats.total_messages());
}

TEST(NasCensus, DynamicLuGrowsDeepest) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = 0;
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  cfg.flow.prepost = 1;
  NasParams p;
  p.iterations = 3;
  const auto lu = run_app(App::lu, cfg, p);
  const auto cg = run_app(App::cg, cfg, p);
  ASSERT_TRUE(lu.verified);
  ASSERT_TRUE(cg.verified);
  EXPECT_GT(lu.stats.max_posted_buffers(), 4 * cg.stats.max_posted_buffers())
      << "LU's pipelined bursts need a much deeper pool (paper Table 2)";
}

TEST(NasDeterminism, SameConfigSameElapsed) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = 0;
  cfg.flow.prepost = 4;
  NasParams p;
  p.iterations = 2;
  const auto a = run_app(App::cg, cfg, p);
  const auto b = run_app(App::cg, cfg, p);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.stats.total_messages(), b.stats.total_messages());
}
