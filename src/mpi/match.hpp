// Tag matching: posted-receive queue and unexpected-message queue with MPI
// ordering semantics (matches between a pair of ranks happen in send
// order; wildcards on source and tag are supported).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "mpi/request.hpp"
#include "mpi/types.hpp"

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::mpi {

/// A receive the application posted and the transport has not matched yet.
struct PostedRecv {
  Rank src = kAnySource;  // may be kAnySource
  Tag tag = kAnyTag;      // may be kAnyTag
  std::byte* buffer = nullptr;
  std::uint32_t capacity = 0;
  RequestPtr req;
};

/// An inbound message that arrived before a matching receive was posted.
struct UnexpectedMsg {
  Rank src = 0;
  Tag tag = 0;
  bool is_rndv = false;
  std::vector<std::byte> eager_payload;  // eager only
  std::uint32_t rndv_bytes = 0;          // rendezvous total size
  std::uint64_t rndv_sreq = 0;           // sender's op id, echoed in the CTS
  /// Wire sequence on the (src, me) connection: the msg_matched instant's
  /// join key when a receive finally matches it.
  std::uint64_t seq = 0;
};

class MatchQueue {
 public:
  /// Try to match an inbound message (src always concrete). Returns the
  /// matched posted receive, removed from the queue; nullopt to enqueue as
  /// unexpected (caller does that via add_unexpected).
  std::optional<PostedRecv> match_inbound(Rank src, Tag tag);

  /// Try to match a freshly posted receive against the unexpected queue
  /// (earliest arrival first). Returns the matched message, removed.
  std::optional<UnexpectedMsg> match_posted(Rank src, Tag tag);

  void add_posted(PostedRecv pr) { posted_.push_back(std::move(pr)); }
  void add_unexpected(UnexpectedMsg um) { unexpected_.push_back(std::move(um)); }

  /// Remove and return every posted receive bound to exactly `src`.
  /// Wildcard-source receives stay: another peer may still satisfy them.
  /// Used when a connection fails permanently.
  std::vector<PostedRecv> extract_posted(Rank src);

  std::size_t posted_count() const noexcept { return posted_.size(); }
  std::size_t unexpected_count() const noexcept { return unexpected_.size(); }
  std::size_t max_unexpected() const noexcept { return max_unexpected_; }

  /// Serialize the matching state (queue order included — MPI ordering
  /// semantics make the order part of the semantics) for the snapshot
  /// restore audit.
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  static bool matches(Rank want_src, Tag want_tag, Rank src, Tag tag) {
    return (want_src == kAnySource || want_src == src) &&
           (want_tag == kAnyTag || want_tag == tag);
  }

  std::deque<PostedRecv> posted_;
  std::deque<UnexpectedMsg> unexpected_;
  std::size_t max_unexpected_ = 0;
};

}  // namespace mvflow::mpi
