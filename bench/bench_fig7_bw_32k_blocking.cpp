// Figure 7: 32 KB bandwidth, 10 pre-posted buffers, blocking version.
#include "bw_figure.hpp"
int main(int argc, char** argv) {
  return mvflow::util::run_main(
      argc, argv, [](const mvflow::util::Options& opts) {
        return mvflow::bench::run_bw_figure(
            "Figure 7: MPI bandwidth, 32K-byte messages, prepost=10, blocking", "fig7_bw_32k_blocking",
            32 * 1024, 10, true,
            "large messages go through Rendezvous whose handshake keeps the "
            "pattern symmetric: all three schemes perform well despite few buffers", opts);
      });
}
