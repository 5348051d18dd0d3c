// Small statistics helpers used by metrics collection and bench reporting.

#ifndef FEDMIGR_UTIL_STATS_H_
#define FEDMIGR_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace fedmigr::util {

// Arithmetic mean of a vector; 0 for an empty vector.
double Mean(const std::vector<double>& values);

// p-th percentile (0 <= p <= 100) by linear interpolation on a sorted copy.
double Percentile(std::vector<double> values, double p);

// One-pass descriptive summary of a sample set; the shared vocabulary for
// obs metric snapshots and bench reporting. All fields are 0 when empty.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

Summary Summarize(std::vector<double> values);

}  // namespace fedmigr::util

#endif  // FEDMIGR_UTIL_STATS_H_
