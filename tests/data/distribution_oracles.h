// Oracles for the paper's label-distribution theory (Section II-C) and for
// the partitioners: the tests check the program's data layer against these
// direct forms.

#ifndef FEDMIGR_TESTS_DATA_DISTRIBUTION_ORACLES_H_
#define FEDMIGR_TESTS_DATA_DISTRIBUTION_ORACLES_H_

#include <vector>

#include "data/dataset.h"
#include "data/distribution.h"
#include "data/partition.h"
#include "util/logging.h"

namespace fedmigr::data {

// Per-class sample counts of `dataset` (length num_classes).
inline std::vector<int> ClassCounts(const Dataset& dataset) {
  std::vector<int> counts(static_cast<size_t>(dataset.num_classes()), 0);
  for (int label : dataset.labels()) ++counts[static_cast<size_t>(label)];
  return counts;
}

// True iff every sample index appears in exactly one part.
inline bool IsExactCover(const Partition& partition, int dataset_size) {
  std::vector<int> seen(static_cast<size_t>(dataset_size), 0);
  for (const auto& part : partition) {
    for (int idx : part) {
      if (idx < 0 || idx >= dataset_size) return false;
      if (++seen[static_cast<size_t>(idx)] > 1) return false;
    }
  }
  for (int count : seen) {
    if (count != 1) return false;
  }
  return true;
}

// Per-client label distributions for a partition.
inline std::vector<std::vector<double>> ClientDistributions(
    const Dataset& dataset, const Partition& partition) {
  std::vector<std::vector<double>> dists;
  dists.reserve(partition.size());
  for (const auto& part : partition) {
    dists.push_back(LabelDistribution(dataset, part));
  }
  return dists;
}

// Symmetric K x K matrix of pairwise EMDs between client distributions:
// the D_t component of the paper's DRL state.
inline std::vector<std::vector<double>> DivergenceMatrix(
    const std::vector<std::vector<double>>& client_distributions) {
  const size_t k = client_distributions.size();
  std::vector<std::vector<double>> matrix(k, std::vector<double>(k, 0.0));
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      const double d =
          EmdDistance(client_distributions[i], client_distributions[j]);
      matrix[i][j] = d;
      matrix[j][i] = d;
    }
  }
  return matrix;
}

// Eq. 13: effective distribution of a model that trained on `own` (weight
// n_own) and then on peers' data via M uniform migrations across clients
// whose total distribution is `population` (total weight n_total):
//   q' = (K * n_own * q_own + M * n_total * q) / (K * n_own + M * n_total).
inline std::vector<double> MigratedDistribution(
    const std::vector<double>& own, double n_own,
    const std::vector<double>& population, double n_total, int num_clients,
    int num_migrations) {
  FEDMIGR_CHECK_EQ(own.size(), population.size());
  FEDMIGR_CHECK_GT(num_clients, 0);
  FEDMIGR_CHECK_GE(num_migrations, 0);
  const double k = static_cast<double>(num_clients);
  const double m = static_cast<double>(num_migrations);
  const double denom = k * n_own + m * n_total;
  std::vector<double> mixed(own.size());
  for (size_t l = 0; l < own.size(); ++l) {
    mixed[l] = (k * n_own * own[l] + m * n_total * population[l]) / denom;
  }
  return mixed;
}

}  // namespace fedmigr::data

#endif  // FEDMIGR_TESTS_DATA_DISTRIBUTION_ORACLES_H_
