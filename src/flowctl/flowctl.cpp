#include "flowctl/flowctl.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/serial.hpp"

namespace mvflow::flowctl {

std::string_view to_string(Scheme s) {
  switch (s) {
    case Scheme::hardware: return "hardware";
    case Scheme::user_static: return "static";
    case Scheme::user_dynamic: return "dynamic";
  }
  return "?";
}

std::optional<Scheme> parse_scheme(std::string_view name) {
  if (name == "hardware" || name == "hw") return Scheme::hardware;
  if (name == "static" || name == "user_static") return Scheme::user_static;
  if (name == "dynamic" || name == "user_dynamic") return Scheme::user_dynamic;
  return std::nullopt;
}

ConnectionFlow::ConnectionFlow(const Config& config) : config_(config) {
  util::require(config_.prepost >= 1, "prepost must be >= 1");
  util::require(config_.ecm_threshold >= 1, "ecm_threshold must be >= 1");
  util::require(config_.growth_step >= 1, "growth_step must be >= 1");
  util::require(config_.max_prepost >= config_.prepost,
                "max_prepost below prepost");
  credits_ = config_.prepost;
  current_posted_ = config_.prepost;
  counters_.max_posted = current_posted_;
}

bool ConnectionFlow::try_acquire_credit() {
  if (!user_level()) {
    ++counters_.credited_sent;
    return true;
  }
  if (credits_ <= 0) return false;
  --credits_;
  ++aud_consumed_;
  ++counters_.credited_sent;
  return true;
}

void ConnectionFlow::add_credits(int n) {
  util::require(n >= 0, "negative credit update");
  if (!user_level() || n == 0) return;
  credits_ += n;
  aud_received_ += static_cast<std::uint64_t>(n);
  counters_.credits_received += static_cast<std::uint64_t>(n);
}

int ConnectionFlow::initial_posted() const noexcept { return config_.prepost; }

int ConnectionFlow::effective_ecm_threshold() const noexcept {
  // A threshold above the pool size would suppress ECMs forever and
  // deadlock a one-way pattern; never require more returns than the pool.
  return std::min(config_.ecm_threshold, current_posted_);
}

bool ConnectionFlow::on_credited_repost() {
  if (!user_level()) return false;
  ++aud_delivered_;
  ++accumulated_;
  return accumulated_ >= effective_ecm_threshold();
}

int ConnectionFlow::take_return_credits() {
  if (!user_level()) return 0;
  const int out = accumulated_;
  aud_granted_ += static_cast<std::uint64_t>(out);
  accumulated_ = 0;
  return out;
}

int ConnectionFlow::on_backlogged_flag() {
  if (config_.scheme != Scheme::user_dynamic) return 0;
  if (current_posted_ >= config_.max_prepost) return 0;
  int step = config_.exponential_growth ? current_posted_ : config_.growth_step;
  step = std::min(step, config_.max_prepost - current_posted_);
  current_posted_ += step;
  counters_.max_posted = std::max(counters_.max_posted, current_posted_);
  ++counters_.growth_events;
  // The fresh buffers are immediately returnable credits for the sender.
  accumulated_ += step;
  return step;
}

void ConnectionFlow::serialize_state(util::serial::BufWriter& w) const {
  w.u8(static_cast<std::uint8_t>(config_.scheme));
  w.i32(config_.prepost);
  w.i32(config_.ecm_threshold);
  w.i32(config_.growth_step);
  w.b(config_.exponential_growth);
  w.i32(config_.max_prepost);
  w.i32(credits_);
  w.i32(accumulated_);
  w.i32(current_posted_);
  w.u64(counters_.credited_sent);
  w.u64(counters_.control_sent);
  w.u64(counters_.ecm_sent);
  w.u64(counters_.backlog_entered);
  w.u64(counters_.backlog_dispatched);
  w.u64(counters_.backlog_failed);
  w.u64(counters_.optimistic_rts);
  w.u64(counters_.credits_received);
  w.u64(counters_.growth_events);
  w.i32(counters_.max_posted);
}

}  // namespace mvflow::flowctl
