// Nonblocking operation handles.
#pragma once

#include <memory>

#include "mpi/types.hpp"

namespace mvflow::mpi {

/// One outstanding nonblocking operation. Created by Device::isend/irecv;
/// completed by the progress engine; observed via wait/test.
class Request {
 public:
  bool complete() const noexcept { return complete_; }
  /// The operation finished unsuccessfully (its connection failed). The
  /// request still counts as complete so wait/test return instead of
  /// hanging; the data never transferred.
  bool failed() const noexcept { return failed_; }
  const Status& status() const noexcept { return status_; }

  // Progress-engine side.
  void mark_complete(const Status& st) {
    status_ = st;
    complete_ = true;
  }
  void mark_complete() { complete_ = true; }
  void mark_error() {
    failed_ = true;
    complete_ = true;
  }

 private:
  bool complete_ = false;
  bool failed_ = false;
  Status status_;
};

using RequestPtr = std::shared_ptr<Request>;

}  // namespace mvflow::mpi
