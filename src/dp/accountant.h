// Privacy-budget accounting across training epochs. We track basic
// (sequential) composition: k releases of an (ε₀, δ₀)-DP mechanism are
// (k·ε₀, k·δ₀)-DP. This is deliberately the simplest sound accountant; the
// paper only sweeps total budgets ε ∈ {∞, 150, 100}.

#ifndef FEDMIGR_DP_ACCOUNTANT_H_
#define FEDMIGR_DP_ACCOUNTANT_H_

namespace fedmigr::dp {

class PrivacyAccountant {
 public:
  // total_epsilon <= 0 disables accounting (infinite budget).
  PrivacyAccountant(double total_epsilon, double total_delta);

  // Registers one mechanism invocation with the given per-release cost.
  void Spend(double epsilon, double delta);

  double epsilon_spent() const { return epsilon_spent_; }
  double delta_spent() const { return delta_spent_; }
  bool Exhausted() const;

  // Per-release ε when the total budget is to be split over k releases.
  static double PerReleaseEpsilon(double total_epsilon, int releases);

 private:
  double total_epsilon_;
  double total_delta_;
  double epsilon_spent_ = 0.0;
  double delta_spent_ = 0.0;
};

}  // namespace fedmigr::dp

#endif  // FEDMIGR_DP_ACCOUNTANT_H_
