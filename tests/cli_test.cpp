// Command-line guard (util::run_main): a malformed option value ends a
// bench or an example with one error line naming the option and exit 1,
// not in std::terminate (SIGABRT, exit 134).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

namespace {

struct Outcome {
  int exit_code = -1;
  std::string err;
};

Outcome run(const std::string& command, const std::string& leaf) {
  const std::string err_path = ::testing::TempDir() + "mvflow_cli_test_" + leaf;
  const int rc =
      std::system((command + " > /dev/null 2> " + err_path).c_str());
  std::ifstream f(err_path);
  Outcome out;
  out.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  out.err.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  return out;
}

TEST(CliOptions, BenchRejectsMalformedJobsWithExit1) {
  const Outcome o =
      run(std::string(MVFLOW_FIG2_BIN) + " -j four", "fig2_jobs.txt");
  EXPECT_EQ(o.exit_code, 1) << o.err;
  EXPECT_NE(o.err.find("error: option -j: 'four'"), std::string::npos)
      << o.err;
}

TEST(CliOptions, ExampleRejectsMalformedPrepostWithExit1) {
  const Outcome o = run(std::string(MVFLOW_NAS_DEMO_BIN) + " lu --prepost=6x",
                        "nas_demo_prepost.txt");
  EXPECT_EQ(o.exit_code, 1) << o.err;
  EXPECT_NE(o.err.find("error: option --prepost: '6x'"), std::string::npos)
      << o.err;
}

}  // namespace
