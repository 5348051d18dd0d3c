#include "rl/state.h"

#include <gtest/gtest.h>

#include "net/budget.h"
#include "net/sim_topologies.h"
#include "net/topology.h"

namespace fedmigr::rl {
namespace {

struct StateFixture {
  StateFixture() : topology(net::MakeC10SimTopology()) {
    const int k = 10;
    client_dists.resize(k, std::vector<double>(k, 0.0));
    for (int i = 0; i < k; ++i) {
      client_dists[static_cast<size_t>(i)][static_cast<size_t>(i)] = 1.0;
    }
    model_dists = client_dists;
    ctx.epoch = 10;
    ctx.topology = &topology;
    ctx.model_bytes = 100000;
    ctx.client_distributions = &client_dists;
    ctx.model_distributions = &model_dists;
    ctx.global_loss = 2.0;
    ctx.budget = &budget;
    gain = fl::MigrationGainMatrix(ctx);
  }

  net::Topology topology;
  net::Budget budget;
  std::vector<std::vector<double>> client_dists;
  std::vector<std::vector<double>> model_dists;
  fl::PolicyContext ctx;
  std::vector<std::vector<double>> gain;
};

TEST(StateTest, CandidateRowDimensions) {
  StateFixture f;
  const auto rows = CandidateRows(f.ctx, f.gain, 0);
  EXPECT_EQ(rows.size(), 10u);
  for (const auto& row : rows) {
    EXPECT_EQ(static_cast<int>(row.size()), kActionFeatureDim);
  }
}

TEST(StateTest, StayRowIsMarked) {
  StateFixture f;
  const auto rows = CandidateRows(f.ctx, f.gain, 3);
  EXPECT_EQ(rows[3][3], 1.0f);  // stay flag
  EXPECT_EQ(rows[3][0], 0.0f);  // no gain
  EXPECT_EQ(rows[3][2], 0.0f);  // no transfer time
  EXPECT_EQ(rows[4][3], 0.0f);
}

TEST(StateTest, GainFeatureNormalizedToUnit) {
  StateFixture f;
  const auto rows = CandidateRows(f.ctx, f.gain, 0);
  // Disjoint singletons: EMD 2.0 -> normalized to 1.0.
  EXPECT_FLOAT_EQ(rows[1][0], 1.0f);
}

TEST(StateTest, SameLanFlagMatchesTopology) {
  StateFixture f;
  const auto rows = CandidateRows(f.ctx, f.gain, 0);
  EXPECT_EQ(rows[1][1], 1.0f);  // 0 and 1 share LAN 0
  EXPECT_EQ(rows[5][1], 0.0f);  // 5 is in LAN 1
}

TEST(StateTest, TransferTimeNormalizedToSlowestPair) {
  StateFixture f;
  const auto rows = CandidateRows(f.ctx, f.gain, 0);
  float max_time = 0.0f;
  for (size_t j = 0; j < rows.size(); ++j) {
    EXPECT_GE(rows[j][2], 0.0f);
    EXPECT_LE(rows[j][2], 1.0f);
    max_time = std::max(max_time, rows[j][2]);
  }
  // Cross-LAN from 0 is the slowest reachable pair -> exactly 1.0.
  EXPECT_FLOAT_EQ(max_time, 1.0f);
  // Intra-LAN is strictly cheaper.
  EXPECT_LT(rows[1][2], rows[5][2]);
}

TEST(StateTest, GlobalFeaturesPropagate) {
  StateFixture f;
  net::Budget budget(100.0, 1000.0);
  budget.ConsumeCompute(50.0);
  budget.ConsumeBandwidth(250.0);
  f.ctx.budget = &budget;
  const auto rows = CandidateRows(f.ctx, f.gain, 0);
  EXPECT_NEAR(rows[0][6], 0.5f, 1e-6f);   // compute fraction
  EXPECT_NEAR(rows[0][7], 0.25f, 1e-6f);  // bandwidth fraction
}

TEST(StateTest, LossSquashedToUnitRange) {
  StateFixture f;
  f.ctx.global_loss = 1000.0;
  const auto rows = CandidateRows(f.ctx, f.gain, 0);
  EXPECT_LE(rows[0][5], 1.0f);
  EXPECT_GE(rows[0][5], 0.0f);
}

TEST(StateTest, MaxTransferSecondsPositive) {
  StateFixture f;
  EXPECT_GT(MaxTransferSeconds(f.ctx), 0.0);
}

}  // namespace
}  // namespace fedmigr::rl
