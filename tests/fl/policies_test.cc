#include "fl/policies.h"

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "net/budget.h"
#include "net/sim_topologies.h"
#include "util/rng.h"

namespace fedmigr::fl {
namespace {

// A 10-client context with one-class-per-client skew: client k's data is
// class k, the model hosted at k has only seen class k so far.
struct ContextFixture {
  ContextFixture() : topology(net::MakeC10SimTopology()), rng(99) {
    const int k = 10;
    client_dists.resize(k, std::vector<double>(k, 0.0));
    for (int i = 0; i < k; ++i) {
      client_dists[static_cast<size_t>(i)][static_cast<size_t>(i)] = 1.0;
    }
    model_dists = client_dists;
    ctx.topology = &topology;
    ctx.model_bytes = 100000;
    ctx.client_distributions = &client_dists;
    ctx.model_distributions = &model_dists;
    ctx.budget = &budget;
    ctx.rng = &rng;
  }

  net::Topology topology;
  net::Budget budget;
  util::Rng rng;
  std::vector<std::vector<double>> client_dists;
  std::vector<std::vector<double>> model_dists;
  PolicyContext ctx;
};

TEST(MigrationGainMatrixTest, ZeroDiagonalMaxOffDiagonal) {
  ContextFixture f;
  const auto gain = MigrationGainMatrix(f.ctx);
  for (size_t i = 0; i < gain.size(); ++i) {
    EXPECT_EQ(gain[i][i], 0.0);
    for (size_t j = 0; j < gain.size(); ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(gain[i][j], 2.0);  // disjoint singletons
      }
    }
  }
}

TEST(MigrationGainMatrixTest, SeenDataReducesGain) {
  ContextFixture f;
  // Model at 0 has already seen classes 0 and 1 equally.
  f.model_dists[0][0] = 0.5;
  f.model_dists[0][1] = 0.5;
  const auto gain = MigrationGainMatrix(f.ctx);
  EXPECT_LT(gain[0][1], gain[0][2]);
}

TEST(NoMigrationPolicyTest, AlwaysIdentity) {
  ContextFixture f;
  NoMigrationPolicy policy;
  EXPECT_TRUE(policy.Plan(f.ctx).IsIdentity());
}

TEST(RandomMigrationPolicyTest, ProducesPermutation) {
  ContextFixture f;
  RandomMigrationPolicy policy;
  for (int trial = 0; trial < 5; ++trial) {
    const MigrationPlan plan = policy.Plan(f.ctx);
    EXPECT_TRUE(plan.IsPermutation());
  }
}

TEST(RandomMigrationPolicyTest, PlansVaryAcrossCalls) {
  ContextFixture f;
  RandomMigrationPolicy policy;
  const MigrationPlan a = policy.Plan(f.ctx);
  const MigrationPlan b = policy.Plan(f.ctx);
  EXPECT_NE(a.incoming, b.incoming);
}

TEST(FedSwapPolicyTest, PairwiseSwapViaServer) {
  ContextFixture f;
  FedSwapPolicy policy;
  const MigrationPlan plan = policy.Plan(f.ctx);
  EXPECT_TRUE(plan.via_server);
  EXPECT_TRUE(plan.IsPermutation());
  // Swaps are involutions: applying incoming twice is the identity.
  for (size_t j = 0; j < plan.incoming.size(); ++j) {
    const int i = plan.incoming[j];
    EXPECT_EQ(plan.incoming[static_cast<size_t>(i)], static_cast<int>(j));
  }
  // Even client count: everyone is paired.
  EXPECT_EQ(plan.NumMoves(), 10);
}

TEST(LanConstrainedPolicyTest, CrossLanMovesOnly) {
  ContextFixture f;
  LanConstrainedPolicy policy(/*cross_lan=*/true);
  const MigrationPlan plan = policy.Plan(f.ctx);
  EXPECT_TRUE(plan.IsPermutation());
  int cross = 0;
  for (size_t j = 0; j < plan.incoming.size(); ++j) {
    const int i = plan.incoming[j];
    if (i == static_cast<int>(j)) continue;
    if (!f.topology.SameLan(i, static_cast<int>(j))) ++cross;
  }
  // With 3 LANs of sizes 4/3/3 a full cross-LAN permutation exists.
  EXPECT_GE(cross, 8);
}

TEST(LanConstrainedPolicyTest, WithinLanMovesOnly) {
  ContextFixture f;
  LanConstrainedPolicy policy(/*cross_lan=*/false);
  const MigrationPlan plan = policy.Plan(f.ctx);
  EXPECT_TRUE(plan.IsPermutation());
  for (size_t j = 0; j < plan.incoming.size(); ++j) {
    const int i = plan.incoming[j];
    if (i == static_cast<int>(j)) continue;
    EXPECT_TRUE(f.topology.SameLan(i, static_cast<int>(j)));
  }
}

TEST(MaxEmdPolicyTest, PrefersUnseenData) {
  ContextFixture f;
  // Make destination 5 uniquely attractive for model 0 by making every
  // other gain tiny: model 0 has seen everything except class 5.
  for (int c = 0; c < 10; ++c) {
    f.model_dists[0][static_cast<size_t>(c)] = c == 5 ? 0.0 : 1.0 / 9.0;
  }
  MaxEmdPolicy policy;
  const MigrationPlan plan = policy.Plan(f.ctx);
  EXPECT_EQ(plan.incoming[5], 0);
}

TEST(FlmmPolicyTest, ValidPlanUnderBudget) {
  ContextFixture f;
  FlmmPolicy policy;
  const MigrationPlan plan = policy.Plan(f.ctx);
  EXPECT_EQ(plan.incoming.size(), 10u);
  // Destinations are conflict-free by construction.
  std::vector<int> receives(10, 0);
  for (size_t j = 0; j < plan.incoming.size(); ++j) {
    if (plan.incoming[j] != static_cast<int>(j)) {
      ++receives[static_cast<size_t>(j)];
    }
  }
  for (int r : receives) EXPECT_LE(r, 1);
  EXPECT_FALSE(plan.via_server);
}

TEST(FlmmPolicyTest, NearlyExhaustedBudgetSuppressesMigration) {
  ContextFixture f;
  // Make the gains modest so the inflated comm penalty can dominate.
  for (auto& row : f.model_dists) {
    for (auto& p : row) p = 0.1;  // near-uniform models: small gains
  }
  net::Budget tight(1e12, 1000.0);
  tight.ConsumeBandwidth(990.0);  // 99% consumed
  f.ctx.budget = &tight;
  FlmmPolicy policy;
  const MigrationPlan tight_plan = policy.Plan(f.ctx);

  net::Budget fresh(1e12, 1000.0);
  f.ctx.budget = &fresh;
  const MigrationPlan fresh_plan = policy.Plan(f.ctx);
  EXPECT_LE(tight_plan.NumMoves(), fresh_plan.NumMoves());
}

TEST(PolicyNamesTest, StableIdentifiers) {
  EXPECT_EQ(NoMigrationPolicy().name(), "none");
  EXPECT_EQ(RandomMigrationPolicy().name(), "random");
  EXPECT_EQ(FedSwapPolicy().name(), "fedswap");
  EXPECT_EQ(LanConstrainedPolicy(true).name(), "cross-lan");
  EXPECT_EQ(LanConstrainedPolicy(false).name(), "within-lan");
  EXPECT_EQ(MaxEmdPolicy().name(), "max-emd");
  EXPECT_EQ(FlmmPolicy().name(), "flmm");
}

}  // namespace
}  // namespace fedmigr::fl
