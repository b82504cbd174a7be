// Streaming statistics and histograms used by the benchmark harnesses and
// the fabric/MPI counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mvflow::util {

/// Streaming mean (Welford's update), min, max and sum. O(1) per sample.
class RunningStats {
 public:
  void add(double x) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-bucket histogram over [lo, hi) with uniform bucket width, plus
/// underflow/overflow buckets. Used for message-size and latency censuses.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  std::size_t total() const noexcept { return total_; }
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::size_t bucket(std::size_t i) const { return counts_.at(i); }
  std::size_t underflow() const noexcept { return underflow_; }
  std::size_t overflow() const noexcept { return overflow_; }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }
  double bucket_lo(std::size_t i) const noexcept;
  /// Approximate quantile (bucket midpoint of the bucket holding the q-th
  /// sample). Edge contract: an empty histogram returns lo() for every q;
  /// q <= 0 returns lo() only if a sample underflowed, else the midpoint of
  /// the lowest occupied bucket (hi() when only overflow samples exist);
  /// q >= 1 returns hi() only if a sample overflowed, else the midpoint of
  /// the highest occupied bucket (lo() when only underflow samples exist).
  double quantile(double q) const noexcept;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace mvflow::util
