// Figure 5: 4-byte bandwidth, only 10 pre-posted buffers, blocking version.
#include "bw_figure.hpp"
int main(int argc, char** argv) {
  return mvflow::util::run_main(
      argc, argv, [](const mvflow::util::Options& opts) {
        return mvflow::bench::run_bw_figure(
            "Figure 5: MPI bandwidth, 4-byte messages, prepost=10, blocking", "fig5_bw_pre10_blocking", 4, 10,
            true,
            "once window > 10 the dynamic scheme adapts and wins; the static scheme "
            "stalls on credits and is worst; hardware lands in between", opts);
      });
}
