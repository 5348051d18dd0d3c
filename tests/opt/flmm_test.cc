#include "opt/flmm.h"

#include <set>

#include <gtest/gtest.h>

#include "net/sim_topologies.h"

namespace fedmigr::opt {
namespace {

std::vector<std::vector<double>> UniformGain(int k, double value) {
  std::vector<std::vector<double>> gain(
      static_cast<size_t>(k), std::vector<double>(static_cast<size_t>(k), 0));
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i != j) gain[static_cast<size_t>(i)][static_cast<size_t>(j)] = value;
    }
  }
  return gain;
}

TEST(FlmmScoreTest, PenalizesSlowLinks) {
  const net::Topology topology = net::MakeC10SimTopology();
  const auto gain = UniformGain(10, 1.0);
  const Matrix score = BuildMigrationScore(gain, topology, 1 << 20, 0.5);
  // Same gain everywhere: the cheap intra-LAN link must outscore the WAN-
  // adjacent cross-LAN link.
  EXPECT_GT(score[0][1], score[0][5]);
  EXPECT_EQ(score[0][0], 0.0);
}

TEST(FlmmScoreTest, ZeroCommWeightIgnoresTopology) {
  const net::Topology topology = net::MakeC10SimTopology();
  const auto gain = UniformGain(10, 1.0);
  const Matrix score = BuildMigrationScore(gain, topology, 1 << 20, 0.0);
  EXPECT_DOUBLE_EQ(score[0][1], score[0][5]);
}

TEST(FlmmTest, PlanDestinationsAreConflictFree) {
  const net::Topology topology = net::MakeC10SimTopology();
  const auto gain = UniformGain(10, 1.5);
  const FlmmPlan plan = SolveFlmm(gain, topology, 100000, {});
  ASSERT_EQ(plan.destination.size(), 10u);
  std::set<int> destinations;
  for (size_t i = 0; i < plan.destination.size(); ++i) {
    const int j = plan.destination[i];
    if (j == static_cast<int>(i)) continue;  // stays don't conflict
    EXPECT_TRUE(destinations.insert(j).second)
        << "destination " << j << " used twice";
  }
}

TEST(FlmmTest, NoMigrationWhenGainsAreZero) {
  // Zero gains, positive comm cost -> every score is negative -> all stay.
  const net::Topology topology = net::MakeC10SimTopology();
  const auto gain = UniformGain(10, 0.0);
  const FlmmPlan plan = SolveFlmm(gain, topology, 1 << 22, {});
  for (size_t i = 0; i < plan.destination.size(); ++i) {
    EXPECT_EQ(plan.destination[i], static_cast<int>(i));
  }
}

TEST(FlmmTest, PrefersHighGainDestinations) {
  // Client 0's model gains hugely at client 1 and nothing elsewhere.
  const net::Topology topology = net::MakeC10SimTopology();
  auto gain = UniformGain(10, 0.3);
  gain[0][1] = 2.0;
  const FlmmPlan plan = SolveFlmm(gain, topology, 100000, {});
  EXPECT_EQ(plan.destination[0], 1);
}

TEST(FlmmTest, FractionalSolutionIsRowStochastic) {
  const net::Topology topology = net::MakeC10SimTopology();
  const auto gain = UniformGain(10, 1.0);
  const FlmmPlan plan = SolveFlmm(gain, topology, 100000, {});
  for (const auto& row : plan.fractional) {
    double sum = 0.0;
    for (double x : row) {
      EXPECT_GE(x, -1e-9);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(FlmmTest, SlowLinkAvoidedUnderCommWeight) {
  net::Topology topology = net::MakeC10SimTopology();
  // Make 0 -> 1 (the natural intra-LAN choice) pathologically slow.
  topology.SetLinkMultiplier(0, 1, 0.001);
  auto gain = UniformGain(10, 1.0);
  FlmmOptions options;
  options.comm_weight = 2.0;
  const FlmmPlan plan = SolveFlmm(gain, topology, 1 << 20, options);
  EXPECT_NE(plan.destination[0], 1);
}

}  // namespace
}  // namespace fedmigr::opt
