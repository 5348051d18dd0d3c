#include "net/budget.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace fedmigr::net {

Budget::Budget(double compute_budget, double bandwidth_budget_bytes,
               double time_budget_s)
    : compute_budget_(compute_budget),
      bandwidth_budget_(bandwidth_budget_bytes),
      time_budget_(time_budget_s) {
  FEDMIGR_CHECK_GT(compute_budget_, 0.0);
  FEDMIGR_CHECK_GT(bandwidth_budget_, 0.0);
  FEDMIGR_CHECK_GT(time_budget_, 0.0);
}

void Budget::ConsumeCompute(double units) {
  FEDMIGR_CHECK_GE(units, 0.0);
  compute_used_ += units;
}

void Budget::ConsumeBandwidth(double bytes) {
  FEDMIGR_CHECK_GE(bytes, 0.0);
  bandwidth_used_ += bytes;
}

void Budget::ConsumeTime(double seconds) {
  FEDMIGR_CHECK_GE(seconds, 0.0);
  time_used_ += seconds;
}

double Budget::ComputeUsedFraction() const {
  if (std::isinf(compute_budget_)) return 0.0;
  return std::min(1.0, compute_used_ / compute_budget_);
}

double Budget::BandwidthUsedFraction() const {
  if (std::isinf(bandwidth_budget_)) return 0.0;
  return std::min(1.0, bandwidth_used_ / bandwidth_budget_);
}

}  // namespace fedmigr::net
