#include "util/stats.h"

#include <algorithm>

#include "util/logging.h"

namespace fedmigr::util {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  FEDMIGR_CHECK(!values.empty());
  FEDMIGR_CHECK_GE(p, 0.0);
  FEDMIGR_CHECK_LE(p, 100.0);
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  s.mean = Mean(values);
  s.min = values.front();
  s.max = values.back();
  s.p50 = Percentile(values, 50.0);
  s.p90 = Percentile(values, 90.0);
  s.p99 = Percentile(values, 99.0);
  return s;
}

}  // namespace fedmigr::util
