// Figure 8: 32 KB bandwidth, 10 pre-posted buffers, non-blocking version.
#include "bw_figure.hpp"
int main(int argc, char** argv) {
  return mvflow::util::run_main(
      argc, argv, [](const mvflow::util::Options& opts) {
        return mvflow::bench::run_bw_figure(
            "Figure 8: MPI bandwidth, 32K-byte messages, prepost=10, non-blocking", "fig8_bw_32k_nonblocking",
            32 * 1024, 10, false,
            "all schemes comparable; non-blocking clearly beats the blocking "
            "version through communication overlap", opts);
      });
}
