#include "dp/accountant.h"

#include <limits>

#include "util/logging.h"

namespace fedmigr::dp {

PrivacyAccountant::PrivacyAccountant(double total_epsilon, double total_delta)
    : total_epsilon_(total_epsilon <= 0.0
                         ? std::numeric_limits<double>::infinity()
                         : total_epsilon),
      total_delta_(total_delta) {}

void PrivacyAccountant::Spend(double epsilon, double delta) {
  FEDMIGR_CHECK_GE(epsilon, 0.0);
  FEDMIGR_CHECK_GE(delta, 0.0);
  epsilon_spent_ += epsilon;
  delta_spent_ += delta;
}

bool PrivacyAccountant::Exhausted() const {
  return epsilon_spent_ > total_epsilon_ || delta_spent_ > total_delta_;
}

double PrivacyAccountant::PerReleaseEpsilon(double total_epsilon,
                                            int releases) {
  FEDMIGR_CHECK_GT(releases, 0);
  if (total_epsilon <= 0.0) return 0.0;
  return total_epsilon / releases;
}

}  // namespace fedmigr::dp
