// Tests of the Section II-C arithmetic — including the paper's central
// claim (Eqs. 13-15): migration strictly shrinks the distance between a
// client's effective distribution and the population distribution.

#include "data/distribution.h"

#include <gtest/gtest.h>

#include "data/distribution_oracles.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace fedmigr::data {
namespace {

TEST(LabelDistributionTest, NormalizedHistogram) {
  nn::Tensor features({4, 1});
  const Dataset d(std::move(features), {0, 0, 1, 2}, 3);
  const auto dist = LabelDistribution(d, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(dist[0], 0.5);
  EXPECT_DOUBLE_EQ(dist[1], 0.25);
  EXPECT_DOUBLE_EQ(dist[2], 0.25);
}

TEST(LabelDistributionTest, EmptyIndicesGiveZeros) {
  nn::Tensor features({2, 1});
  const Dataset d(std::move(features), {0, 1}, 2);
  const auto dist = LabelDistribution(d, {});
  EXPECT_EQ(dist, (std::vector<double>{0.0, 0.0}));
}

TEST(PopulationDistributionTest, MatchesFullIndexList) {
  const Dataset d = GenerateSynthetic(C10Spec()).train;
  std::vector<int> all(static_cast<size_t>(d.size()));
  for (int i = 0; i < d.size(); ++i) all[static_cast<size_t>(i)] = i;
  EXPECT_EQ(PopulationDistribution(d), LabelDistribution(d, all));
}

TEST(EmdTest, BasicProperties) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(EmdDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(EmdDistance(a, b), 2.0);       // max over the simplex
  EXPECT_DOUBLE_EQ(EmdDistance(a, b), EmdDistance(b, a));
}

TEST(EmdTest, TriangleInequality) {
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    auto random_dist = [&rng]() {
      std::vector<double> d(5);
      double total = 0.0;
      for (auto& x : d) {
        x = rng.Uniform();
        total += x;
      }
      for (auto& x : d) x /= total;
      return d;
    };
    const auto a = random_dist(), b = random_dist(), c = random_dist();
    EXPECT_LE(EmdDistance(a, c), EmdDistance(a, b) + EmdDistance(b, c) + 1e-12);
  }
}

TEST(DivergenceMatrixTest, SymmetricZeroDiagonal) {
  const std::vector<std::vector<double>> dists = {
      {1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}};
  const auto m = DivergenceMatrix(dists);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m[i][i], 0.0);
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(m[i][j], m[j][i]);
  }
  EXPECT_DOUBLE_EQ(m[0][1], 2.0);
  EXPECT_DOUBLE_EQ(m[0][2], 1.0);
}

TEST(MixDistributionsTest, WeightedAverage) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  const auto mix = MixDistributions(a, 1.0, b, 3.0);
  EXPECT_DOUBLE_EQ(mix[0], 0.25);
  EXPECT_DOUBLE_EQ(mix[1], 0.75);
}

TEST(MixDistributionsTest, ZeroWeightIsIdentity) {
  const std::vector<double> a = {0.3, 0.7};
  const std::vector<double> b = {0.9, 0.1};
  EXPECT_EQ(MixDistributions(a, 0.0, b, 2.0), b);
  EXPECT_EQ(MixDistributions(a, 2.0, b, 0.0), a);
}

// ---- The paper's Theorem (Eqs. 13-15). --------------------------------

TEST(MigratedDistributionTest, MatchesEq13ClosedForm) {
  // Client with n_k = 10 one-class samples out of N = 100 total, K = 10,
  // M = 4 migrations.
  const std::vector<double> own = {1.0, 0.0};
  const std::vector<double> population = {0.4, 0.6};
  const auto mixed = MigratedDistribution(own, 10.0, population, 100.0,
                                          /*num_clients=*/10,
                                          /*num_migrations=*/4);
  // Eq. 13: q' = (K n_k q_k + M N q) / (K n_k + M N).
  const double denom = 10 * 10 + 4 * 100;
  EXPECT_NEAR(mixed[0], (10 * 10 * 1.0 + 4 * 100 * 0.4) / denom, 1e-12);
  EXPECT_NEAR(mixed[1], (4 * 100 * 0.6) / denom, 1e-12);
}

TEST(MigratedDistributionTest, ZeroMigrationsIsIdentity) {
  const std::vector<double> own = {0.9, 0.1};
  const std::vector<double> population = {0.5, 0.5};
  EXPECT_EQ(MigratedDistribution(own, 5.0, population, 50.0, 10, 0), own);
}

TEST(MigratedDistributionTest, PaperTheoremDistanceShrinks) {
  // ||q'_k - q|| < ||q_k - q|| for any M >= 1 (Eq. 15).
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const int classes = 2 + rng.UniformInt(8);
    std::vector<double> own(static_cast<size_t>(classes), 0.0);
    own[static_cast<size_t>(rng.UniformInt(classes))] = 1.0;
    std::vector<double> population(static_cast<size_t>(classes));
    double total = 0.0;
    for (auto& p : population) {
      p = 0.1 + rng.Uniform();
      total += p;
    }
    for (auto& p : population) p /= total;

    const double n_k = 10.0, n_total = 100.0;
    const int k = 10;
    const double before = EmdDistance(own, population);
    if (before < 1e-9) continue;  // already at the population
    for (int m : {1, 2, 5, 20}) {
      const auto mixed =
          MigratedDistribution(own, n_k, population, n_total, k, m);
      EXPECT_LT(EmdDistance(mixed, population), before);
    }
  }
}

TEST(MigratedDistributionTest, DistanceMonotoneInM) {
  // More migrations -> closer to the population distribution.
  const std::vector<double> own = {1.0, 0.0, 0.0};
  const std::vector<double> population = {0.3, 0.4, 0.3};
  double previous = EmdDistance(own, population);
  for (int m = 1; m <= 16; m *= 2) {
    const auto mixed = MigratedDistribution(own, 10.0, population, 100.0,
                                            10, m);
    const double distance = EmdDistance(mixed, population);
    EXPECT_LT(distance, previous);
    previous = distance;
  }
}

TEST(ClientDistributionsTest, OnePerPart) {
  const Dataset d = GenerateSynthetic(C10Spec()).train;
  const Partition parts = {{0, 1, 2}, {3, 4}};
  const auto dists = ClientDistributions(d, parts);
  EXPECT_EQ(dists.size(), 2u);
  EXPECT_EQ(dists[0], LabelDistribution(d, parts[0]));
}

}  // namespace
}  // namespace fedmigr::data
