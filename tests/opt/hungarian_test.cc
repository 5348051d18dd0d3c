#include "opt/hungarian.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fedmigr::opt {
namespace {

// Total cost of an assignment under a cost matrix.
double AssignmentCost(const std::vector<std::vector<double>>& cost,
                      const std::vector<int>& assignment) {
  double total = 0.0;
  for (size_t i = 0; i < assignment.size(); ++i) {
    total += cost[i][static_cast<size_t>(assignment[i])];
  }
  return total;
}

double BruteForceBest(const std::vector<std::vector<double>>& cost) {
  const int n = static_cast<int>(cost.size());
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e300;
  do {
    best = std::min(best, AssignmentCost(cost, perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(HungarianTest, TrivialSingleCell) {
  const auto assignment = SolveAssignment({{3.0}});
  EXPECT_EQ(assignment, (std::vector<int>{0}));
}

TEST(HungarianTest, KnownTwoByTwo) {
  // Diagonal costs 1+1=2 beats anti-diagonal 5+5=10.
  const std::vector<std::vector<double>> cost = {{1, 5}, {5, 1}};
  const auto assignment = SolveAssignment(cost);
  EXPECT_EQ(assignment, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, assignment), 2.0);
}

TEST(HungarianTest, KnownThreeByThree) {
  const std::vector<std::vector<double>> cost = {
      {4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const auto assignment = SolveAssignment(cost);
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, assignment), 5.0);  // 1 + 2 + 2
}

TEST(HungarianTest, OutputIsAlwaysPermutation) {
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + rng.UniformInt(8);
    std::vector<std::vector<double>> cost(
        static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
    for (auto& row : cost) {
      for (auto& c : row) c = rng.Normal(0.0, 3.0);
    }
    const auto assignment = SolveAssignment(cost);
    std::set<int> seen(assignment.begin(), assignment.end());
    EXPECT_EQ(seen.size(), static_cast<size_t>(n));
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), n - 1);
  }
}

class HungarianRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HungarianRandomTest, MatchesBruteForce) {
  const int n = GetParam();
  util::Rng rng(static_cast<uint64_t>(n) * 97);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<double>> cost(
        static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
    for (auto& row : cost) {
      for (auto& c : row) c = rng.Uniform(-10.0, 10.0);
    }
    const auto assignment = SolveAssignment(cost);
    EXPECT_NEAR(AssignmentCost(cost, assignment), BruteForceBest(cost), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, HungarianRandomTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

TEST(HungarianTest, NegativeCosts) {
  const std::vector<std::vector<double>> cost = {{-5, 0}, {0, -5}};
  const auto assignment = SolveAssignment(cost);
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, assignment), -10.0);
}

TEST(HungarianTest, TiedCostsStillValid) {
  const std::vector<std::vector<double>> cost = {
      {1, 1, 1}, {1, 1, 1}, {1, 1, 1}};
  const auto assignment = SolveAssignment(cost);
  std::set<int> seen(assignment.begin(), assignment.end());
  EXPECT_EQ(seen.size(), 3u);
}

}  // namespace
}  // namespace fedmigr::opt
