// Label-distribution arithmetic from Section II-C of the paper: per-client
// label distributions q_k, the population distribution q, the earth mover's
// distance ||q_k - q|| and the two-hop mixture a migration produces. The
// tests hold Eq. 13's closed form and the K x K divergence matrix as
// oracles (tests/data/distribution_oracles.h).

#ifndef FEDMIGR_DATA_DISTRIBUTION_H_
#define FEDMIGR_DATA_DISTRIBUTION_H_

#include <vector>

#include "data/dataset.h"

namespace fedmigr::data {

// Normalized label histogram of the samples `indices` in `dataset`.
// An empty index list yields the all-zero vector.
std::vector<double> LabelDistribution(const Dataset& dataset,
                                      const std::vector<int>& indices);

// Label distribution of the entire dataset (the population distribution q).
std::vector<double> PopulationDistribution(const Dataset& dataset);

// L1 distance sum_l |a_l - b_l| — the EMD over the label simplex used
// throughout Section II-C (Eq. 11).
double EmdDistance(const std::vector<double>& a, const std::vector<double>& b);

// Mixture of two distributions with the given sample weights, the exact
// two-hop counterpart of Eq. 13 used when a concrete destination is known:
// q' = (n_a q_a + n_b q_b) / (n_a + n_b).
std::vector<double> MixDistributions(const std::vector<double>& a, double n_a,
                                     const std::vector<double>& b, double n_b);

}  // namespace fedmigr::data

#endif  // FEDMIGR_DATA_DISTRIBUTION_H_
