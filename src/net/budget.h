// Resource budgets B_c (computation) and B_b (bandwidth) from the FLMM
// formulation (Eq. 16), plus the wall-clock budget used by Fig. 9's
// time-constrained runs. Budgets are consumed by the simulation clock /
// traffic accountant and queried by the reward function (Eq. 17-18).

#ifndef FEDMIGR_NET_BUDGET_H_
#define FEDMIGR_NET_BUDGET_H_

#include <cstdint>
#include <limits>

#include "util/serial.h"

namespace fedmigr::net {

class Budget {
 public:
  // Unlimited budgets by default.
  Budget() = default;
  Budget(double compute_budget, double bandwidth_budget_bytes,
         double time_budget_s = std::numeric_limits<double>::infinity());

  void ConsumeCompute(double units);
  void ConsumeBandwidth(double bytes);
  void ConsumeTime(double seconds);

  double compute_budget() const { return compute_budget_; }
  double bandwidth_budget() const { return bandwidth_budget_; }
  double time_budget() const { return time_budget_; }

  double compute_used() const { return compute_used_; }
  double bandwidth_used() const { return bandwidth_used_; }
  double time_used() const { return time_used_; }

  double compute_remaining() const { return compute_budget_ - compute_used_; }
  double bandwidth_remaining() const {
    return bandwidth_budget_ - bandwidth_used_;
  }
  double time_remaining() const { return time_budget_ - time_used_; }

  // min G_T <= 0 in the paper's termination test.
  bool Exhausted() const {
    return compute_remaining() <= 0.0 || bandwidth_remaining() <= 0.0 ||
           time_remaining() <= 0.0;
  }

  // Fraction of a budget already consumed, in [0, 1]; 0 for infinite
  // budgets. Feeds the DRL state featurizer.
  double ComputeUsedFraction() const;
  double BandwidthUsedFraction() const;

  // Snapshot layout: the consumed amounts (the limits come from
  // configuration).
  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(compute_used_);
    ar.Io(bandwidth_used_);
    ar.Io(time_used_);
    ar.Check(compute_used_ >= 0.0 && bandwidth_used_ >= 0.0 &&
                 time_used_ >= 0.0,
             "negative budget consumption");
    return ar.status();
  }

 private:
  // SNAPSHOT-SKIP(configured limits; only consumed amounts are state)
  double compute_budget_ = std::numeric_limits<double>::infinity();
  // SNAPSHOT-SKIP(configured limits; only consumed amounts are state)
  double bandwidth_budget_ = std::numeric_limits<double>::infinity();
  // SNAPSHOT-SKIP(configured limits; only consumed amounts are state)
  double time_budget_ = std::numeric_limits<double>::infinity();
  double compute_used_ = 0.0;
  double bandwidth_used_ = 0.0;
  double time_used_ = 0.0;
};

}  // namespace fedmigr::net

#endif  // FEDMIGR_NET_BUDGET_H_
