#include "data/distribution.h"

#include <cmath>

#include "util/logging.h"

namespace fedmigr::data {

std::vector<double> LabelDistribution(const Dataset& dataset,
                                      const std::vector<int>& indices) {
  std::vector<double> dist(static_cast<size_t>(dataset.num_classes()), 0.0);
  if (indices.empty()) return dist;
  for (int idx : indices) {
    ++dist[static_cast<size_t>(dataset.label(idx))];
  }
  for (auto& p : dist) p /= static_cast<double>(indices.size());
  return dist;
}

std::vector<double> PopulationDistribution(const Dataset& dataset) {
  std::vector<double> dist(static_cast<size_t>(dataset.num_classes()), 0.0);
  if (dataset.size() == 0) return dist;
  for (int i = 0; i < dataset.size(); ++i) {
    ++dist[static_cast<size_t>(dataset.label(i))];
  }
  for (auto& p : dist) p /= static_cast<double>(dataset.size());
  return dist;
}

double EmdDistance(const std::vector<double>& a,
                   const std::vector<double>& b) {
  FEDMIGR_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

std::vector<double> MixDistributions(const std::vector<double>& a, double n_a,
                                     const std::vector<double>& b,
                                     double n_b) {
  FEDMIGR_CHECK_EQ(a.size(), b.size());
  const double total = n_a + n_b;
  FEDMIGR_CHECK_GT(total, 0.0);
  std::vector<double> mixed(a.size());
  for (size_t l = 0; l < a.size(); ++l) {
    mixed[l] = (n_a * a[l] + n_b * b[l]) / total;
  }
  return mixed;
}

}  // namespace fedmigr::data
