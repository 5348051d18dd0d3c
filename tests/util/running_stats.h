// Running mean, variance and range of a sample stream, for tests that check
// the moments of a random draw.

#ifndef FEDMIGR_TESTS_UTIL_RUNNING_STATS_H_
#define FEDMIGR_TESTS_UTIL_RUNNING_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace fedmigr::util {

// Numerically stable running mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x) {
    if (count_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  // Population variance; 0 when fewer than two samples.
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fedmigr::util

#endif  // FEDMIGR_TESTS_UTIL_RUNNING_STATS_H_
