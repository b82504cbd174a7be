#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

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
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

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

std::string Histogram::to_string(int max_width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out += std::to_string(bucket_lo(i));
    out += " | ";
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(max_width));
    out.append(bar, '#');
    out += " ";
    out += std::to_string(counts_[i]);
    out += "\n";
  }
  return out;
}

}  // namespace mvflow::util
