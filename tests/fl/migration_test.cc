#include "fl/migration.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "net/sim_topologies.h"

namespace fedmigr::fl {
namespace {

// Executes `plan` over global ids (the identity id map).
MigrationExecution Execute(const MigrationPlan& plan,
                           const net::Topology& topology, int64_t model_bytes,
                           net::TrafficAccountant* traffic,
                           net::FaultInjector* faults) {
  std::vector<int> ids(plan.incoming.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ExecuteWithFaults(plan, topology, model_bytes, traffic, faults, ids);
}

// The cost of `plan` under a default (disabled) injector.
MigrationCost FaultFreeCost(const MigrationPlan& plan,
                            const net::Topology& topology, int64_t model_bytes,
                            net::TrafficAccountant* traffic) {
  net::FaultInjector faults;
  return Execute(plan, topology, model_bytes, traffic, &faults).cost;
}

TEST(MigrationPlanTest, IdentityProperties) {
  const MigrationPlan plan = MigrationPlan::Identity(5);
  EXPECT_TRUE(plan.IsIdentity());
  EXPECT_EQ(plan.NumMoves(), 0);
  EXPECT_TRUE(plan.IsPermutation());
}

TEST(MigrationPlanTest, NumMovesCountsNonFixedPoints) {
  MigrationPlan plan = MigrationPlan::Identity(4);
  plan.incoming = {1, 0, 2, 3};  // swap 0 <-> 1
  EXPECT_EQ(plan.NumMoves(), 2);
  EXPECT_TRUE(plan.IsPermutation());
}

TEST(MigrationPlanTest, PermutationDetection) {
  MigrationPlan plan;
  plan.incoming = {0, 0, 2};  // client 0's model used twice
  EXPECT_FALSE(plan.IsPermutation());
  plan.incoming = {0, 3, 2};  // out of range
  EXPECT_FALSE(plan.IsPermutation());
}

TEST(PlanFromDestinationsTest, InvertsDestinationMap) {
  // Model 0 -> client 2, model 2 -> client 0, model 1 stays.
  const MigrationPlan plan = PlanFromDestinations({2, 1, 0});
  EXPECT_EQ(plan.incoming, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(plan.NumMoves(), 2);
}

TEST(PlanFromDestinationsTest, CycleOfThree) {
  const MigrationPlan plan = PlanFromDestinations({1, 2, 0});
  EXPECT_EQ(plan.incoming, (std::vector<int>{2, 0, 1}));
  EXPECT_TRUE(plan.IsPermutation());
}

TEST(PlanFromDestinationsTest, NonPermutationSingleMove) {
  // Only client 0 sends (paper's one-pair-per-round case): destination 2
  // receives 0's model, everyone else keeps their own.
  const MigrationPlan plan = PlanFromDestinations({2, 1, 2});
  EXPECT_EQ(plan.incoming, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(plan.NumMoves(), 1);
  EXPECT_FALSE(plan.IsPermutation());
}

TEST(CostTest, IdentityCostsNothing) {
  const net::Topology topology = net::MakeC10SimTopology();
  net::TrafficAccountant traffic;
  const MigrationCost cost = FaultFreeCost(MigrationPlan::Identity(10),
                                           topology, 1 << 20, &traffic);
  EXPECT_EQ(cost.bytes, 0);
  EXPECT_EQ(cost.seconds, 0.0);
  EXPECT_EQ(traffic.total_bytes(), 0);
}

TEST(CostTest, C2cMoveChargesOneTransfer) {
  const net::Topology topology = net::MakeC10SimTopology();
  net::TrafficAccountant traffic;
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[1] = 0;  // 0 -> 1, intra-LAN
  const MigrationCost cost =
      FaultFreeCost(plan, topology, 1000, &traffic);
  EXPECT_EQ(cost.bytes, 1000);
  EXPECT_EQ(cost.num_moves, 1);
  EXPECT_EQ(traffic.c2c_bytes(), 1000);
  EXPECT_EQ(traffic.c2s_bytes(), 0);
  EXPECT_NEAR(cost.seconds, topology.TransferSeconds(0, 1, 1000), 1e-12);
}

TEST(CostTest, ViaServerChargesTwoWanHops) {
  const net::Topology topology = net::MakeC10SimTopology();
  net::TrafficAccountant traffic;
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[1] = 0;
  plan.via_server = true;
  const MigrationCost cost = FaultFreeCost(plan, topology, 1000, &traffic);
  EXPECT_EQ(cost.bytes, 2000);
  EXPECT_EQ(traffic.c2s_bytes(), 2000);
  EXPECT_EQ(traffic.c2c_bytes(), 0);
  EXPECT_GT(cost.seconds, topology.TransferSeconds(0, 1, 1000));
}

TEST(CostTest, ParallelMovesTakeMaxTime) {
  const net::Topology topology = net::MakeC10SimTopology();
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[1] = 0;  // intra-LAN (fast)
  plan.incoming[5] = 4;  // intra-LAN
  plan.incoming[8] = 2;  // cross-LAN (slower)
  const MigrationCost cost = FaultFreeCost(plan, topology, 1 << 20, nullptr);
  EXPECT_EQ(cost.num_moves, 3);
  EXPECT_NEAR(cost.seconds, topology.TransferSeconds(2, 8, 1 << 20), 1e-12);
}

TEST(CostTest, NullTrafficAccountantAllowed) {
  const net::Topology topology = net::MakeC10SimTopology();
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[3] = 7;
  const MigrationCost cost = FaultFreeCost(plan, topology, 500, nullptr);
  EXPECT_EQ(cost.bytes, 500);
}

TEST(MigrationPlanTest, NonPermutationFanOutCounting) {
  // One source replicated to several destinations is a legal plan (the DRL
  // policy never emits it, but execution must not assume a permutation).
  MigrationPlan plan = MigrationPlan::Identity(4);
  plan.incoming = {0, 0, 0, 3};
  EXPECT_FALSE(plan.IsPermutation());
  EXPECT_EQ(plan.NumMoves(), 2);  // destinations 1 and 2 receive 0's model
}

TEST(MigrationPlanTest, OutOfRangeSourceIsNotPermutation) {
  MigrationPlan plan;
  plan.incoming = {-1, 1, 2};
  EXPECT_FALSE(plan.IsPermutation());
}

TEST(ExecuteWithFaultsTest, DisabledInjectorChargesTheDirectTransfers) {
  const net::Topology topology = net::MakeC10SimTopology();
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[1] = 0;
  plan.incoming[8] = 2;
  net::FaultInjector faults;  // disabled
  net::TrafficAccountant traffic;
  const MigrationExecution exec =
      Execute(plan, topology, 1 << 20, &traffic, &faults);
  EXPECT_EQ(exec.cost.seconds,
            std::max(topology.TransferSeconds(0, 1, 1 << 20),
                     topology.TransferSeconds(2, 8, 1 << 20)));
  EXPECT_EQ(exec.cost.bytes, 2 << 20);
  EXPECT_EQ(exec.cost.num_moves, 2);
  EXPECT_EQ(traffic.c2c_bytes(), 2 << 20);
  EXPECT_EQ(exec.failed_moves, 0);
  EXPECT_EQ(exec.fallback_moves, 0);
  ASSERT_EQ(exec.delivered.size(), 10u);
  EXPECT_TRUE(exec.delivered[1]);
  EXPECT_TRUE(exec.delivered[8]);
  EXPECT_FALSE(exec.delivered[0]);  // no move planned for destination 0
}

TEST(ExecuteWithFaultsTest, DisabledInjectorDeliversEverything) {
  const net::Topology topology = net::MakeC10SimTopology();
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[3] = 7;
  net::FaultInjector faults;  // disabled
  const MigrationExecution exec =
      Execute(plan, topology, 1000, nullptr, &faults);
  EXPECT_TRUE(exec.delivered[3]);
  EXPECT_EQ(exec.failed_moves, 0);
  EXPECT_EQ(exec.cost.bytes, 1000);
}

TEST(ExecuteWithFaultsTest, FailedDirectMoveFallsBackViaServer) {
  const net::Topology topology = net::MakeC10SimTopology();
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[1] = 0;
  net::FaultConfig config;
  config.link_failure_prob = 0.999999;
  config.max_retries = 0;
  net::FaultInjector faults(config);
  net::TrafficAccountant traffic;
  const MigrationExecution exec =
      Execute(plan, topology, 1000, &traffic, &faults);
  // The direct C2C attempt failed; the fallback re-route would have been
  // attempted via the server (two C2S hops), but with a near-certain
  // failure probability those hops fail too. Either way the direct bytes
  // are charged as C2C and any fallback hops as C2S.
  EXPECT_GE(traffic.c2c_bytes(), 1000);
  if (exec.fallback_moves > 0) {
    EXPECT_GT(traffic.c2s_bytes(), 0);
    EXPECT_EQ(faults.counters().fallbacks, exec.fallback_moves);
  }
  if (!exec.delivered[1]) {
    EXPECT_EQ(exec.failed_moves, 1);
  }
}

TEST(ExecuteWithFaultsTest, FallbackDeliversWhenOnlyOneLinkIsBad) {
  // Retry exhaustion on the direct link, but a fallback with enough retries
  // eventually delivers with very high probability. Use a modest failure
  // rate so the server hops nearly always succeed within their retries.
  const net::Topology topology = net::MakeC10SimTopology();
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[1] = 0;
  net::FaultConfig config;
  config.link_failure_prob = 0.4;
  config.max_retries = 8;
  net::FaultInjector faults(config);
  net::TrafficAccountant traffic;
  const MigrationExecution exec =
      Execute(plan, topology, 1000, &traffic, &faults);
  // With 9 attempts per hop at p=0.4, delivery (direct or via fallback) is
  // effectively certain and deterministic for the fixed seed.
  EXPECT_TRUE(exec.delivered[1]);
  EXPECT_EQ(exec.failed_moves, 0);
}

TEST(ExecuteWithFaultsTest, CorruptionIsFlaggedPerDestination) {
  const net::Topology topology = net::MakeC10SimTopology();
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[1] = 0;
  plan.incoming[5] = 4;
  net::FaultConfig config;
  config.corruption_prob = 1.0;
  net::FaultInjector faults(config);
  const MigrationExecution exec =
      Execute(plan, topology, 1000, nullptr, &faults);
  EXPECT_TRUE(exec.delivered[1]);
  EXPECT_TRUE(exec.corrupted[1]);
  EXPECT_TRUE(exec.corrupted[5]);
  EXPECT_EQ(faults.counters().corrupted, 2);
}

TEST(ExecuteWithFaultsTest, ViaServerPlansHaveNoFurtherFallback) {
  const net::Topology topology = net::MakeC10SimTopology();
  MigrationPlan plan = MigrationPlan::Identity(10);
  plan.incoming[1] = 0;
  plan.via_server = true;
  net::FaultConfig config;
  config.link_failure_prob = 0.999999;
  config.max_retries = 0;
  net::FaultInjector faults(config);
  net::TrafficAccountant traffic;
  const MigrationExecution exec =
      Execute(plan, topology, 1000, &traffic, &faults);
  EXPECT_FALSE(exec.delivered[1]);
  EXPECT_EQ(exec.failed_moves, 1);
  EXPECT_EQ(exec.fallback_moves, 0);
  EXPECT_EQ(traffic.c2c_bytes(), 0);  // via-server traffic is all C2S
  EXPECT_GE(traffic.c2s_bytes(), 1000);
}

}  // namespace
}  // namespace fedmigr::fl
