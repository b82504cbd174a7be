// Figure 4: 4-byte bandwidth, 100 pre-posted buffers, non-blocking version.
#include "bw_figure.hpp"
int main(int argc, char** argv) {
  return mvflow::util::run_main(
      argc, argv, [](const mvflow::util::Options& opts) {
        return mvflow::bench::run_bw_figure(
            "Figure 4: MPI bandwidth, 4-byte messages, prepost=100, non-blocking", "fig4_bw_pre100_nonblocking", 4,
            100, false,
            "window never exceeds the credits, so all three schemes are comparable", opts);
      });
}
