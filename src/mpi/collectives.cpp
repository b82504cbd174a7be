// Byte-level collective algorithms over the point-to-point layer:
// dissemination barrier, binomial broadcast, ring allgather and pairwise
// alltoall(v). Typed reductions live in the header (templates over the
// element type and operator).
#include <vector>

#include "mpi/communicator.hpp"
#include "util/check.hpp"

namespace mvflow::mpi {

void Communicator::barrier() {
  const Tag tag = next_coll_tag();
  const int p = size_;
  std::byte token{0};
  for (int k = 1; k < p; k <<= 1) {
    const Rank to = (rank() + k) % p;
    const Rank from = (rank() - k + p) % p;
    sendrecv({&token, 1}, to, tag, {&token, 1}, from, tag);
  }
}

void Communicator::bcast(std::span<std::byte> data, Rank root) {
  util::require(root >= 0 && root < size_, "invalid bcast root");
  const Tag tag = next_coll_tag();
  const int p = size_;
  if (p == 1) return;
  const int rel = (rank() - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const Rank src = (rank() - mask + p) % p;
      recv(data, src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const Rank dst = (rank() + mask) % p;
      send(data, dst, tag);
    }
    mask >>= 1;
  }
}

void Communicator::allgather(std::span<const std::byte> mine,
                             std::span<std::byte> all) {
  const int p = size_;
  const std::size_t block = mine.size();
  util::require(all.size() == block * static_cast<std::size_t>(p),
                "allgather output size mismatch");
  const Tag tag = next_coll_tag();
  // Own block in place.
  std::copy(mine.begin(), mine.end(),
            all.begin() + static_cast<std::ptrdiff_t>(block * rank()));
  if (p == 1) return;
  if ((p & (p - 1)) == 0) {
    // Power of two: recursive doubling — pairwise symmetric exchanges
    // (log2 P steps), so credits flow back via piggybacking.
    for (int mask = 1; mask < p; mask <<= 1) {
      const Rank partner = rank() ^ mask;
      // Exchange the contiguous group of blocks each side currently holds.
      const int group = (rank() / mask) * mask;         // my group start
      const int pgroup = (partner / mask) * mask;       // partner's group
      sendrecv(all.subspan(block * static_cast<std::size_t>(group),
                           block * static_cast<std::size_t>(mask)),
               partner, tag,
               all.subspan(block * static_cast<std::size_t>(pgroup),
                           block * static_cast<std::size_t>(mask)),
               partner, tag);
    }
    return;
  }
  // General rank counts: ring — each step forwards the newest block.
  const Rank right = (rank() + 1) % p;
  const Rank left = (rank() - 1 + p) % p;
  int have = rank();  // index of the newest block we hold
  for (int s = 0; s < p - 1; ++s) {
    const int incoming = (have - 1 + p) % p;
    const auto send_block = all.subspan(block * static_cast<std::size_t>(have), block);
    const auto recv_block =
        all.subspan(block * static_cast<std::size_t>(incoming), block);
    sendrecv(send_block, right, tag, recv_block, left, tag);
    have = incoming;
  }
}

void Communicator::alltoall(std::span<const std::byte> send_data,
                            std::span<std::byte> recv_data,
                            std::size_t block_bytes) {
  const int p = size_;
  util::require(send_data.size() == block_bytes * static_cast<std::size_t>(p) &&
                    recv_data.size() == block_bytes * static_cast<std::size_t>(p),
                "alltoall buffer size mismatch");
  const Tag tag = next_coll_tag();
  // Local block.
  std::copy_n(send_data.begin() + static_cast<std::ptrdiff_t>(block_bytes * rank()),
              block_bytes,
              recv_data.begin() + static_cast<std::ptrdiff_t>(block_bytes * rank()));
  // Pairwise exchange: step s talks to rank +s (send) and rank -s (recv).
  for (int s = 1; s < p; ++s) {
    const Rank to = (rank() + s) % p;
    const Rank from = (rank() - s + p) % p;
    sendrecv(send_data.subspan(block_bytes * static_cast<std::size_t>(to), block_bytes),
             to, tag,
             recv_data.subspan(block_bytes * static_cast<std::size_t>(from), block_bytes),
             from, tag);
  }
}

void Communicator::alltoallv(const std::byte* send_data,
                             std::span<const std::size_t> send_counts,
                             std::span<const std::size_t> send_displs,
                             std::byte* recv_data,
                             std::span<const std::size_t> recv_counts,
                             std::span<const std::size_t> recv_displs) {
  const int p = size_;
  util::require(send_counts.size() == static_cast<std::size_t>(p) &&
                    recv_counts.size() == static_cast<std::size_t>(p),
                "alltoallv counts size mismatch");
  const Tag tag = next_coll_tag();
  const auto me = static_cast<std::size_t>(rank());
  util::check(send_counts[me] == recv_counts[me],
              "alltoallv self block size mismatch");
  std::copy_n(send_data + send_displs[me], send_counts[me],
              recv_data + recv_displs[me]);
  for (int s = 1; s < p; ++s) {
    const auto to = static_cast<std::size_t>((rank() + s) % p);
    const auto from = static_cast<std::size_t>((rank() - s + p) % p);
    sendrecv({send_data + send_displs[to], send_counts[to]},
             static_cast<Rank>(to), tag,
             {recv_data + recv_displs[from], recv_counts[from]},
             static_cast<Rank>(from), tag);
  }
}

}  // namespace mvflow::mpi
