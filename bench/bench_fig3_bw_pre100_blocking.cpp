// Figure 3: 4-byte bandwidth, 100 pre-posted buffers, blocking version.
#include "bw_figure.hpp"
int main(int argc, char** argv) {
  return mvflow::util::run_main(
      argc, argv, [](const mvflow::util::Options& opts) {
        return mvflow::bench::run_bw_figure(
            "Figure 3: MPI bandwidth, 4-byte messages, prepost=100, blocking",
            "fig3_bw_pre100_blocking", 4, 100, true,
            "window never exceeds the credits, so all three schemes are comparable", opts);
      });
}
