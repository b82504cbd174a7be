#include "mpi/workload.hpp"

#include <cstddef>
#include <string_view>

#include "mpi/communicator.hpp"
#include "util/serial.hpp"

namespace mvflow::mpi {

namespace {

// ---- built-in bodies --------------------------------------------------

RankBodyFn make_pingpong(const WorkloadSpec& spec) {
  const std::size_t bytes = static_cast<std::size_t>(spec.param("bytes", 8));
  const int iters = static_cast<int>(spec.param("iters", 200));
  return [bytes, iters](Communicator& comm) {
    if (comm.rank() > 1) return;
    std::vector<std::byte> buf(bytes > 0 ? bytes : 1);
    for (int i = 0; i < iters; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf, 1, 7);
        comm.recv(buf, 1, 7);
      } else {
        comm.recv(buf, 0, 7);
        comm.send(buf, 0, 7);
      }
    }
  };
}

RankBodyFn make_bw(const WorkloadSpec& spec) {
  const std::size_t bytes = static_cast<std::size_t>(spec.param("bytes", 1024));
  const int window = static_cast<int>(spec.param("window", 16));
  const int reps = static_cast<int>(spec.param("reps", 50));
  const bool blocking = spec.param("blocking", 0) != 0;
  return [bytes, window, reps, blocking](Communicator& comm) {
    if (comm.rank() > 1) return;
    std::vector<std::byte> buf(bytes > 0 ? bytes : 1);
    if (comm.rank() == 0) {
      for (int r = 0; r < reps; ++r) {
        if (blocking) {
          for (int i = 0; i < window; ++i) comm.send(buf, 1, 3);
        } else {
          std::vector<RequestPtr> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int i = 0; i < window; ++i) reqs.push_back(comm.isend(buf, 1, 3));
          comm.wait_all(reqs);
        }
      }
      // Close the stream so the sink's elapsed time covers everything.
      comm.recv(buf, 1, 4);
    } else {
      for (int r = 0; r < reps; ++r) {
        for (int i = 0; i < window; ++i) comm.recv(buf, 0, 3);
      }
      comm.send(buf, 0, 4);
    }
  };
}

RankBodyFn make_allpairs(const WorkloadSpec& spec) {
  const std::size_t bytes = static_cast<std::size_t>(spec.param("bytes", 512));
  const int rounds = static_cast<int>(spec.param("rounds", 20));
  return [bytes, rounds](Communicator& comm) {
    std::vector<std::byte> sendbuf(bytes > 0 ? bytes : 1);
    std::vector<std::byte> recvbuf(sendbuf.size());
    for (int r = 0; r < rounds; ++r) {
      for (int off = 1; off < comm.size(); ++off) {
        const Rank dst = (comm.rank() + off) % comm.size();
        const Rank src = (comm.rank() - off + comm.size()) % comm.size();
        comm.sendrecv(sendbuf, dst, 11, recvbuf, src, 11);
      }
    }
  };
}

RankBodyFn make_soak(const WorkloadSpec& spec) {
  const std::size_t bytes = static_cast<std::size_t>(spec.param("bytes", 256));
  const int rounds = static_cast<int>(spec.param("rounds", 60));
  return [bytes, rounds](Communicator& comm) {
    std::vector<std::byte> sendbuf;
    std::vector<std::byte> recvbuf;
    for (int r = 0; r < rounds; ++r) {
      // Cycle the message size so eager, multi-packet, and rendezvous
      // traffic all stay in flight over the soak's lifetime.
      const std::size_t mult = static_cast<std::size_t>(1)
                               << (2 * (r % 3));  // 1x, 4x, 16x
      const std::size_t sz = (bytes > 0 ? bytes : 1) * mult;
      sendbuf.assign(sz, std::byte{static_cast<unsigned char>(r)});
      recvbuf.assign(sz, std::byte{0});
      for (int off = 1; off < comm.size(); ++off) {
        const Rank dst = (comm.rank() + off) % comm.size();
        const Rank src = (comm.rank() - off + comm.size()) % comm.size();
        comm.sendrecv(sendbuf, dst, 21, recvbuf, src, 21);
      }
      if (r % 8 == 7) comm.barrier();
    }
  };
}

RankBodyFn make_hotspot(const WorkloadSpec& spec) {
  const std::size_t bytes = static_cast<std::size_t>(spec.param("bytes", 256));
  const int rounds = static_cast<int>(spec.param("rounds", 20));
  const int actives = static_cast<int>(spec.param("actives", 8));
  return [bytes, rounds, actives](Communicator& comm) {
    // Hub-and-spokes over a constant active set: rank 0 exchanges with
    // ranks 1..actives each round; every other rank stays completely idle.
    // Under on-demand wiring the idle ranks never create a connection, so
    // this body is the O(active)-progress probe for huge worlds — total
    // work is a function of `actives`, never of comm.size().
    const int spokes = std::min(actives, comm.size() - 1);
    std::vector<std::byte> buf(bytes > 0 ? bytes : 1);
    if (comm.rank() == 0) {
      for (int r = 0; r < rounds; ++r) {
        for (int p = 1; p <= spokes; ++p) {
          comm.recv(buf, p, 31);
          comm.send(buf, p, 31);
        }
      }
    } else if (comm.rank() <= spokes) {
      for (int r = 0; r < rounds; ++r) {
        comm.send(buf, 0, 31);
        comm.recv(buf, 0, 31);
      }
    }
  };
}

struct Builtin {
  std::string_view name;
  RankBodyFn (*make)(const WorkloadSpec&);
};

/// Every workload a snapshot may name, in name order.
constexpr Builtin kBuiltins[] = {{"allpairs", make_allpairs},
                                 {"bw", make_bw},
                                 {"hotspot", make_hotspot},
                                 {"pingpong", make_pingpong},
                                 {"soak", make_soak}};

}  // namespace

std::string WorkloadSpec::to_string() const {
  std::string out = name + "(";
  bool first = true;
  for (const auto& [k, v] : params) {
    if (!first) out += ",";
    first = false;
    out += k + "=" + std::to_string(v);
  }
  return out + ")";
}

RankBodyFn make_workload(const WorkloadSpec& spec) {
  std::string known;
  for (const Builtin& b : kBuiltins) {
    if (b.name == spec.name) return b.make(spec);
    if (!known.empty()) known += ", ";
    known += b.name;
  }
  throw util::serial::SnapshotError("snapshot names unknown workload \"" +
                                    spec.name + "\" (built-in: " + known +
                                    ")");
}

}  // namespace mvflow::mpi
