#include "util/stats.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mvflow::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  require(hi > lo && buckets > 0, "histogram needs hi > lo and buckets > 0");
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // FP edge
  ++counts_[idx];
}

double Histogram::bucket_lo(std::size_t i) const noexcept {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::quantile(double q) const noexcept {
  if (total_ == 0) return lo_;
  if (q <= 0.0) {
    // Exact minimum-side contract: lo_ only when a sample actually fell
    // below the range; otherwise the midpoint of the lowest occupied
    // bucket, falling back to hi_ when only overflow samples exist.
    if (underflow_ > 0) return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0) return bucket_lo(i) + width_ / 2;
    }
    return hi_;
  }
  if (q >= 1.0) {
    // Mirror image: hi_ only when a sample overflowed the range.
    if (overflow_ > 0) return hi_;
    for (std::size_t i = counts_.size(); i-- > 0;) {
      if (counts_[i] > 0) return bucket_lo(i) + width_ / 2;
    }
    return lo_;
  }
  const auto target = static_cast<std::size_t>(q * static_cast<double>(total_));
  std::size_t seen = underflow_;
  if (seen > target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) return bucket_lo(i) + width_ / 2;
  }
  return hi_;
}

}  // namespace mvflow::util
