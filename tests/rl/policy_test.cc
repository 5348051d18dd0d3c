#include "rl/policy.h"

#include <memory>

#include <gtest/gtest.h>

#include "net/budget.h"
#include "net/sim_topologies.h"
#include "net/topology.h"
#include "rl/pretrain.h"

namespace fedmigr::rl {
namespace {

struct PolicyFixture {
  PolicyFixture() : topology(net::MakeC10SimTopology()), rng(17) {
    const int k = 10;
    client_dists.resize(k, std::vector<double>(k, 0.0));
    for (int i = 0; i < k; ++i) {
      client_dists[static_cast<size_t>(i)][static_cast<size_t>(i)] = 1.0;
    }
    model_dists = client_dists;
    ctx.epoch = 1;
    ctx.topology = &topology;
    ctx.model_bytes = 50000;
    ctx.client_distributions = &client_dists;
    ctx.model_distributions = &model_dists;
    ctx.global_loss = 2.0;
    ctx.budget = &budget;
    ctx.rng = &rng;
  }

  std::shared_ptr<DdpgAgent> MakeAgent() {
    PretrainOptions options;
    options.episodes = 3;  // fast; tests only need a functioning agent
    auto agent = std::make_shared<DdpgAgent>(AgentConfig{});
    SurrogateConfig env;
    env.num_clients = 10;
    env.num_classes = 10;
    env.num_lans = 3;
    Pretrain(agent.get(), env, options);
    return agent;
  }

  net::Topology topology;
  net::Budget budget;
  util::Rng rng;
  std::vector<std::vector<double>> client_dists;
  std::vector<std::vector<double>> model_dists;
  fl::PolicyContext ctx;
};

TEST(DrlPolicyTest, PlanIsConflictFree) {
  PolicyFixture f;
  DrlMigrationPolicy policy(f.MakeAgent(), DrlPolicyOptions{});
  for (int trial = 0; trial < 3; ++trial) {
    const fl::MigrationPlan plan = policy.Plan(f.ctx);
    ASSERT_EQ(plan.incoming.size(), 10u);
    std::vector<int> sends(10, 0);
    for (size_t j = 0; j < plan.incoming.size(); ++j) {
      const int src = plan.incoming[j];
      ASSERT_GE(src, 0);
      ASSERT_LT(src, 10);
      if (src != static_cast<int>(j)) ++sends[static_cast<size_t>(src)];
    }
    for (int s : sends) EXPECT_LE(s, 1);
  }
}

TEST(DrlPolicyTest, RhoOneFollowsFlmm) {
  PolicyFixture f;
  DrlPolicyOptions options;
  options.rho = 1.0;
  DrlMigrationPolicy policy(f.MakeAgent(), options);
  const fl::MigrationPlan plan = policy.Plan(f.ctx);
  // All gains equal and positive: the FLMM plan migrates everyone.
  EXPECT_GT(plan.NumMoves(), 5);
}

TEST(DrlPolicyTest, OnlineLearningAccumulatesTransitions) {
  PolicyFixture f;
  DrlPolicyOptions options;
  options.online_learning = true;
  options.train_steps_per_feedback = 0;  // just exercise the bookkeeping
  DrlMigrationPolicy policy(f.MakeAgent(), options);

  (void)policy.Plan(f.ctx);
  fl::PolicyFeedback feedback;
  feedback.epoch = 1;
  feedback.loss_before = 2.0;
  feedback.loss_after = 1.8;
  policy.Feedback(feedback);
  // Next Plan attaches successor states and pushes to the buffer.
  (void)policy.Plan(f.ctx);
  SUCCEED();  // reaching here without CHECK failures is the assertion
}

TEST(DrlPolicyTest, OnlineTrainingStepsRun) {
  PolicyFixture f;
  DrlPolicyOptions options;
  options.online_learning = true;
  options.train_steps_per_feedback = 1;
  options.buffer_capacity = 64;
  DrlMigrationPolicy policy(f.MakeAgent(), options);
  // Drive enough plan/feedback cycles to fill a batch and take agent
  // gradient steps; the invariant is simply that nothing breaks and plans
  // stay valid throughout.
  for (int epoch = 1; epoch <= 8; ++epoch) {
    const fl::MigrationPlan plan = policy.Plan(f.ctx);
    ASSERT_EQ(plan.incoming.size(), 10u);
    fl::PolicyFeedback feedback;
    feedback.epoch = epoch;
    feedback.loss_before = 2.0 - 0.05 * epoch;
    feedback.loss_after = 2.0 - 0.05 * (epoch + 1);
    feedback.done = epoch == 8;
    feedback.success = true;
    policy.Feedback(feedback);
  }
  SUCCEED();
}

TEST(DrlPolicyTest, FeedbackWithoutLearningIsNoop) {
  PolicyFixture f;
  DrlMigrationPolicy policy(f.MakeAgent(), DrlPolicyOptions{});
  fl::PolicyFeedback feedback;
  policy.Feedback(feedback);  // must not crash or allocate state
  SUCCEED();
}

TEST(DrlPolicyTest, NameIsStable) {
  PolicyFixture f;
  DrlMigrationPolicy policy(f.MakeAgent(), DrlPolicyOptions{});
  EXPECT_EQ(policy.name(), "fedmigr-drl");
}

}  // namespace
}  // namespace fedmigr::rl
