// The application-facing MPI surface for one rank: point-to-point
// operations (blocking and nonblocking, typed and raw-byte), the standard
// collectives built over them, and simulation helpers (compute time).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpi/device.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/process.hpp"

namespace mvflow::mpi {

class World;

/// Reduction operators for the typed collectives.
struct OpSum {
  template <typename T> void operator()(T& acc, const T& v) const { acc += v; }
};
struct OpMax {
  template <typename T> void operator()(T& acc, const T& v) const {
    if (v > acc) acc = v;
  }
};
struct OpMin {
  template <typename T> void operator()(T& acc, const T& v) const {
    if (v < acc) acc = v;
  }
};

class Communicator {
 public:
  Communicator(World& world, Device& dev, sim::Process& proc);

  Rank rank() const noexcept { return dev_.rank(); }
  int size() const noexcept { return size_; }

  // ---- point-to-point: raw bytes ----
  /// Standard-mode send: eager when the payload fits a pre-pinned buffer,
  /// rendezvous otherwise (the only mode the paper's experiments post).
  RequestPtr isend(std::span<const std::byte> data, Rank dst, Tag tag);
  RequestPtr irecv(std::span<std::byte> buffer, Rank src, Tag tag);
  void send(std::span<const std::byte> data, Rank dst, Tag tag);
  Status recv(std::span<std::byte> buffer, Rank src, Tag tag);
  void wait(const RequestPtr& req);
  void wait_all(std::span<const RequestPtr> reqs);
  void progress() { dev_.progress(); }

  /// Combined send+receive (deadlock-safe pairwise exchange).
  Status sendrecv(std::span<const std::byte> senddata, Rank dst, Tag sendtag,
                  std::span<std::byte> recvbuf, Rank src, Tag recvtag);

  // ---- point-to-point: typed ----
  template <typename T>
  void send_n(const T* data, std::size_t n, Rank dst, Tag tag) {
    send(as_bytes(data, n), dst, tag);
  }
  template <typename T>
  Status recv_n(T* data, std::size_t n, Rank src, Tag tag) {
    return recv(as_writable_bytes(data, n), src, tag);
  }
  template <typename T>
  RequestPtr isend_n(const T* data, std::size_t n, Rank dst, Tag tag) {
    return isend(as_bytes(data, n), dst, tag);
  }
  template <typename T>
  RequestPtr irecv_n(T* data, std::size_t n, Rank src, Tag tag) {
    return irecv(as_writable_bytes(data, n), src, tag);
  }

  // ---- collectives (all ranks must call in the same order) ----
  void barrier();
  void bcast(std::span<std::byte> data, Rank root);
  /// Equal-size allgather: `mine` replicated into `all` (size*n elements).
  void allgather(std::span<const std::byte> mine, std::span<std::byte> all);
  /// Equal-block alltoall: block i of `send` goes to rank i.
  void alltoall(std::span<const std::byte> send, std::span<std::byte> recv,
                std::size_t block_bytes);
  /// Variable alltoall; counts/displacements in bytes.
  void alltoallv(const std::byte* send, std::span<const std::size_t> send_counts,
                 std::span<const std::size_t> send_displs, std::byte* recv,
                 std::span<const std::size_t> recv_counts,
                 std::span<const std::size_t> recv_displs);

  template <typename T>
  void bcast_n(T* data, std::size_t n, Rank root) {
    bcast(as_writable_bytes(data, n), root);
  }

  /// In-place allreduce over a typed span (reduce-to-0 + bcast).
  template <typename T, typename Op>
  void allreduce(std::span<T> inout, Op op) {
    reduce_inplace(inout, op, 0);
    bcast(std::as_writable_bytes(inout), 0);
  }
  double allreduce_sum(double v) {
    allreduce(std::span<double>(&v, 1), OpSum{});
    return v;
  }
  double allreduce_max(double v) {
    allreduce(std::span<double>(&v, 1), OpMax{});
    return v;
  }
  std::int64_t allreduce_sum(std::int64_t v) {
    allreduce(std::span<std::int64_t>(&v, 1), OpSum{});
    return v;
  }

  /// Binomial-tree reduction; on `root`, inout holds the reduced result.
  template <typename T, typename Op>
  void reduce_inplace(std::span<T> inout, Op op, Rank root) {
    const Tag tag = next_coll_tag();
    const int p = size_;
    const int rel = (rank() - root + p) % p;
    // Persistent scratch: stable buffer address across collective calls so
    // the device's pin-down cache behaves deterministically.
    if (coll_scratch_.size() < inout.size_bytes())
      coll_scratch_.resize(inout.size_bytes());
    T* tmp = reinterpret_cast<T*>(coll_scratch_.data());
    for (int mask = 1; mask < p; mask <<= 1) {
      if ((rel & mask) == 0) {
        const int src_rel = rel | mask;
        if (src_rel < p) {
          recv_n(tmp, inout.size(), (src_rel + root) % p, tag);
          for (std::size_t i = 0; i < inout.size(); ++i) op(inout[i], tmp[i]);
        }
      } else {
        const int dst_rel = rel & ~mask;
        send_n(inout.data(), inout.size(), (dst_rel + root) % p, tag);
        break;
      }
    }
  }

  // ---- simulation helpers ----
  /// Model local computation taking `d` of simulated time.
  void compute(sim::Duration d) { proc_.delay(d); }
  sim::TimePoint now() const;

 private:
  template <typename T>
  static std::span<const std::byte> as_bytes(const T* p, std::size_t n) {
    return std::as_bytes(std::span<const T>(p, n));
  }
  template <typename T>
  static std::span<std::byte> as_writable_bytes(T* p, std::size_t n) {
    return std::as_writable_bytes(std::span<T>(p, n));
  }

  Tag next_coll_tag() { return kFirstInternalTag - (coll_seq_++); }

  World& world_;
  Device& dev_;
  sim::Process& proc_;
  int size_;
  int coll_seq_ = 0;
  std::vector<std::byte> coll_scratch_;  // reduction receive buffer
};

}  // namespace mvflow::mpi
