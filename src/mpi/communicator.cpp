#include "mpi/communicator.hpp"

#include "mpi/world.hpp"
#include "util/check.hpp"

namespace mvflow::mpi {

Communicator::Communicator(World& world, Device& dev, sim::Process& proc)
    : world_(world), dev_(dev), proc_(proc), size_(world.num_ranks()) {}

RequestPtr Communicator::isend(std::span<const std::byte> data, Rank dst,
                               Tag tag) {
  util::require(dst >= 0 && dst < size_, "invalid destination rank");
  return dev_.isend(dst, tag, data);
}

RequestPtr Communicator::irecv(std::span<std::byte> buffer, Rank src, Tag tag) {
  util::require(src == kAnySource || (src >= 0 && src < size_),
                "invalid source rank");
  return dev_.irecv(src, tag, buffer);
}

void Communicator::send(std::span<const std::byte> data, Rank dst, Tag tag) {
  wait(isend(data, dst, tag));
}

Status Communicator::recv(std::span<std::byte> buffer, Rank src, Tag tag) {
  const auto req = irecv(buffer, src, tag);
  wait(req);
  return req->status();
}

void Communicator::wait(const RequestPtr& req) { dev_.wait(req); }

void Communicator::wait_all(std::span<const RequestPtr> reqs) {
  for (const auto& r : reqs) dev_.wait(r);
}

Status Communicator::sendrecv(std::span<const std::byte> senddata, Rank dst,
                              Tag sendtag, std::span<std::byte> recvbuf,
                              Rank src, Tag recvtag) {
  const auto rreq = irecv(recvbuf, src, recvtag);
  const auto sreq = isend(senddata, dst, sendtag);
  wait(sreq);
  wait(rreq);
  return rreq->status();
}

sim::TimePoint Communicator::now() const { return dev_.engine().now(); }

}  // namespace mvflow::mpi
