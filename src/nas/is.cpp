// IS proxy: parallel bucket sort of integer keys.
//
// Communication shape per iteration (matches NAS IS): an allreduce of the
// bucket histogram (multi-KB, rendezvous) followed by an alltoallv of the
// keys themselves (large blocks, rendezvous), then purely local sorting.
// Verified by global sortedness across rank boundaries and exact key-count
// conservation.
#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "mpi/communicator.hpp"
#include "nas/common.hpp"
#include "nas/kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mvflow::nas {

namespace {
constexpr unsigned kKeyBits = 19;
constexpr std::uint32_t kMaxKey = 1u << kKeyBits;
constexpr std::size_t kBuckets = 1024;
constexpr unsigned kLowDigitBits = 10;  // first counting pass; the second takes 9

/// One stable counting pass: `in` scattered into `out` by the digit
/// (key >> shift) mod 2^bits.
void counting_pass(const std::vector<std::uint32_t>& in,
                   std::vector<std::uint32_t>& out, unsigned shift,
                   unsigned bits) {
  std::array<std::uint32_t, std::size_t{1} << kLowDigitBits> start{};
  const std::uint32_t mask = (1u << bits) - 1;
  for (const std::uint32_t k : in) ++start[(k >> shift) & mask];
  std::uint32_t sum = 0;
  for (std::size_t d = 0; d <= mask; ++d) {
    const std::uint32_t n = start[d];
    start[d] = sum;
    sum += n;
  }
  for (const std::uint32_t k : in) out[start[(k >> shift) & mask]++] = k;
}

/// Sorts keys below kMaxKey by two LSD counting passes, as NAS IS ranks its
/// keys by counting. The result ends in `keys`' own storage: it is the
/// alltoallv's receive buffer, and the pin-down cache keys on its address.
void sort_keys(std::vector<std::uint32_t>& keys,
               std::vector<std::uint32_t>& scratch) {
  scratch.resize(keys.size());
  counting_pass(keys, scratch, 0, kLowDigitBits);
  counting_pass(scratch, keys, kLowDigitBits, kKeyBits - kLowDigitBits);
}
}  // namespace

AppOutcome run_is(mpi::Communicator& comm, const NasParams& p) {
  const int np = comm.size();
  const auto me = static_cast<std::size_t>(comm.rank());
  const std::size_t keys_per_rank = static_cast<std::size_t>(8192) * p.scale;
  const int iterations = p.iterations > 0 ? p.iterations : 10;

  util::Xoshiro256 rng(p.seed * 1000003 + me);
  bool ok = true;
  std::int64_t total_sorted = 0;
  // Persistent exchange buffers (stable addresses for the pin-down cache).
  std::vector<std::uint32_t> sendbuf, recvbuf, sort_scratch;
  std::vector<std::int64_t> global(kBuckets);

  // Note: the loop bound must not depend on per-rank state (`ok`), or the
  // ranks would diverge in their collective sequences.
  for (int iter = 0; iter < iterations; ++iter) {
    // Fresh keys each iteration (NAS IS perturbs between iterations).
    std::vector<std::uint32_t> keys(keys_per_rank);
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng.below(kMaxKey));

    // Local histogram over the buckets.
    std::vector<std::int64_t> hist(kBuckets, 0);
    const std::uint32_t bucket_width = kMaxKey / kBuckets;
    for (auto k : keys) ++hist[k / bucket_width];
    charge_points(comm, p, keys.size());

    // Global histogram -> bucket ownership split (balanced prefix).
    std::copy(hist.begin(), hist.end(), global.begin());
    comm.allreduce(std::span<std::int64_t>(global), mpi::OpSum{});
    const std::int64_t total = std::accumulate(global.begin(), global.end(),
                                               std::int64_t{0});
    std::vector<std::size_t> first_bucket(static_cast<std::size_t>(np) + 1, 0);
    {
      const std::int64_t per_rank = (total + np - 1) / np;
      std::int64_t acc = 0;
      std::size_t r = 1;
      for (std::size_t b = 0; b < kBuckets && r < static_cast<std::size_t>(np); ++b) {
        acc += global[b];
        if (acc >= per_rank * static_cast<std::int64_t>(r)) first_bucket[r++] = b + 1;
      }
      for (; r <= static_cast<std::size_t>(np); ++r) first_bucket[r] = kBuckets;
    }
    std::array<std::size_t, kBuckets> owner_of_bucket{};
    for (std::size_t b = 0; b < kBuckets; ++b) {
      owner_of_bucket[b] = static_cast<std::size_t>(np) - 1;
      for (std::size_t r = 0; r < static_cast<std::size_t>(np); ++r) {
        if (b >= first_bucket[r] && b < first_bucket[r + 1]) {
          owner_of_bucket[b] = r;
          break;
        }
      }
    }

    // Partition keys by destination rank (buckets are contiguous ranges,
    // so sorting by bucket groups them by destination too).
    std::vector<std::vector<std::uint32_t>> outgoing(static_cast<std::size_t>(np));
    for (auto k : keys) outgoing[owner_of_bucket[k / bucket_width]].push_back(k);
    charge_points(comm, p, keys.size());

    // Exchange counts, then the keys (alltoallv).
    std::vector<std::int64_t> send_count_keys(static_cast<std::size_t>(np));
    for (std::size_t r = 0; r < outgoing.size(); ++r)
      send_count_keys[r] = static_cast<std::int64_t>(outgoing[r].size());
    std::vector<std::int64_t> recv_count_keys(static_cast<std::size_t>(np));
    comm.alltoall(std::as_bytes(std::span<const std::int64_t>(send_count_keys)),
                  std::as_writable_bytes(std::span<std::int64_t>(recv_count_keys)),
                  sizeof(std::int64_t));

    std::vector<std::size_t> scounts(static_cast<std::size_t>(np)),
        sdispls(static_cast<std::size_t>(np)), rcounts(static_cast<std::size_t>(np)),
        rdispls(static_cast<std::size_t>(np));
    sendbuf.clear();
    sendbuf.reserve(keys.size());
    std::size_t soff = 0, roff = 0;
    for (std::size_t r = 0; r < static_cast<std::size_t>(np); ++r) {
      scounts[r] = outgoing[r].size() * sizeof(std::uint32_t);
      sdispls[r] = soff;
      soff += scounts[r];
      sendbuf.insert(sendbuf.end(), outgoing[r].begin(), outgoing[r].end());
      rcounts[r] = static_cast<std::size_t>(recv_count_keys[r]) * sizeof(std::uint32_t);
      rdispls[r] = roff;
      roff += rcounts[r];
    }
    if (recvbuf.size() < roff / sizeof(std::uint32_t))
      recvbuf.resize(roff / sizeof(std::uint32_t));
    recvbuf.resize(roff / sizeof(std::uint32_t));
    comm.alltoallv(reinterpret_cast<const std::byte*>(sendbuf.data()), scounts,
                   sdispls, reinterpret_cast<std::byte*>(recvbuf.data()), rcounts,
                   rdispls);

    // Local sort of the received keys.
    sort_keys(recvbuf, sort_scratch);
    charge_points(comm, p, recvbuf.size() * 17);  // ~n log n

    // ---- verification (not charged to simulated compute) ----
    // (a) local order, then the boundaries: my max must be <= the right
    //     neighbor's min (over non-empty ranks).
    ok = ok && std::is_sorted(recvbuf.begin(), recvbuf.end());
    const std::uint32_t my_min = recvbuf.empty() ? kMaxKey : recvbuf.front();
    const std::uint32_t my_max = recvbuf.empty() ? 0 : recvbuf.back();
    std::vector<std::uint32_t> mins(static_cast<std::size_t>(np)),
        maxs(static_cast<std::size_t>(np));
    comm.allgather(std::as_bytes(std::span<const std::uint32_t>(&my_min, 1)),
                   std::as_writable_bytes(std::span<std::uint32_t>(mins)));
    comm.allgather(std::as_bytes(std::span<const std::uint32_t>(&my_max, 1)),
                   std::as_writable_bytes(std::span<std::uint32_t>(maxs)));
    std::uint32_t running_max = 0;
    for (std::size_t r = 0; r < static_cast<std::size_t>(np); ++r) {
      if (mins[r] == kMaxKey) continue;  // empty rank
      if (mins[r] < running_max) ok = false;
      running_max = std::max(running_max, maxs[r]);
    }
    // (b) no key lost or duplicated.
    const auto got = comm.allreduce_sum(static_cast<std::int64_t>(recvbuf.size()));
    if (got != static_cast<std::int64_t>(keys_per_rank) * np) ok = false;
    total_sorted += static_cast<std::int64_t>(recvbuf.size());
  }

  AppOutcome out;
  out.verified = verify_all(comm, ok);
  out.metric = static_cast<double>(total_sorted);
  return out;
}

}  // namespace mvflow::nas
