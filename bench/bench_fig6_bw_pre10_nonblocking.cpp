// Figure 6: 4-byte bandwidth, only 10 pre-posted buffers, non-blocking.
#include "bw_figure.hpp"
int main(int argc, char** argv) {
  return mvflow::util::run_main(
      argc, argv, [](const mvflow::util::Options& opts) {
        return mvflow::bench::run_bw_figure(
            "Figure 6: MPI bandwidth, 4-byte messages, prepost=10, non-blocking", "fig6_bw_pre10_nonblocking", 4,
            10, false,
            "same ordering as Figure 5 (dynamic > hardware > static beyond the "
            "credit limit); user-level schemes do better in the blocking version", opts);
      });
}
