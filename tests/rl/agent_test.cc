#include "rl/agent.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "rl/state.h"
#include "util/serial.h"

namespace fedmigr::rl {
namespace {

std::vector<std::vector<float>> ThreeCandidates() {
  // gain, same_lan, time, stay, epoch, loss, compute, bandwidth
  return {
      {1.0f, 0.0f, 0.5f, 0.0f, 0.5f, 0.5f, 0.1f, 0.1f},
      {0.1f, 1.0f, 0.1f, 0.0f, 0.5f, 0.5f, 0.1f, 0.1f},
      {0.0f, 1.0f, 0.0f, 1.0f, 0.5f, 0.5f, 0.1f, 0.1f},
  };
}

TEST(AgentTest, PolicyIsDistribution) {
  DdpgAgent agent(AgentConfig{});
  const auto candidates = ThreeCandidates();
  const std::vector<bool> mask(3, true);
  const auto probs = agent.Policy(candidates, mask);
  double sum = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AgentTest, MaskZeroesProbability) {
  DdpgAgent agent(AgentConfig{});
  const auto candidates = ThreeCandidates();
  const std::vector<bool> mask = {true, false, true};
  const auto probs = agent.Policy(candidates, mask);
  EXPECT_EQ(probs[1], 0.0);
  EXPECT_NEAR(probs[0] + probs[2], 1.0, 1e-9);
}

TEST(AgentTest, SelectActionRespectsMask) {
  DdpgAgent agent(AgentConfig{});
  util::Rng rng(1);
  const auto candidates = ThreeCandidates();
  const std::vector<bool> mask = {false, false, true};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(agent.SelectAction(candidates, mask, /*explore=*/true, &rng), 2);
    EXPECT_EQ(agent.SelectAction(candidates, mask, /*explore=*/false, &rng),
              2);
  }
}

TEST(AgentTest, GreedySelectionIsArgmax) {
  DdpgAgent agent(AgentConfig{});
  util::Rng rng(2);
  const auto candidates = ThreeCandidates();
  const std::vector<bool> mask(3, true);
  const auto probs = agent.Policy(candidates, mask);
  int argmax = 0;
  for (size_t i = 1; i < probs.size(); ++i) {
    if (probs[i] > probs[static_cast<size_t>(argmax)]) {
      argmax = static_cast<int>(i);
    }
  }
  EXPECT_EQ(agent.SelectAction(candidates, mask, /*explore=*/false, &rng),
            argmax);
}

TEST(AgentTest, TargetNetworksStartIdentical) {
  DdpgAgent agent(AgentConfig{});
  const auto candidates = ThreeCandidates();
  const auto live = agent.Score(candidates, /*use_target=*/false);
  const auto target = agent.Score(candidates, /*use_target=*/true);
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_NEAR(live[i], target[i], 1e-6);
  }
}

TEST(AgentTest, TrainNoopOnSmallBuffer) {
  DdpgAgent agent(AgentConfig{});
  PrioritizedReplayBuffer buffer(64);
  util::Rng rng(3);
  const TrainStats stats = agent.Train(&buffer, &rng);
  EXPECT_EQ(stats.critic_loss, 0.0);
}

TEST(AgentTest, TrainingReducesCriticError) {
  // Single repeated transition with known return: critic should fit it.
  AgentConfig config;
  config.batch_size = 8;
  config.gamma = 0.0;  // pure regression to the reward
  DdpgAgent agent(config);
  PrioritizedReplayBuffer buffer(64);
  Transition t;
  t.candidates = ThreeCandidates();
  t.action_index = 0;
  t.reward = 1.5f;
  t.done = true;
  for (int i = 0; i < 32; ++i) buffer.Add(t);

  util::Rng rng(4);
  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 200; ++step) {
    const TrainStats stats = agent.Train(&buffer, &rng);
    if (step == 0) first_loss = stats.critic_loss;
    last_loss = stats.critic_loss;
  }
  EXPECT_LT(last_loss, first_loss);
  EXPECT_NEAR(agent.Q(t.candidates[0]), 1.5, 0.5);
}

TEST(AgentTest, ActorShiftsTowardRewardedAction) {
  AgentConfig config;
  config.batch_size = 8;
  config.gamma = 0.0;
  DdpgAgent agent(config);
  PrioritizedReplayBuffer buffer(128);
  // Action 0 earns +2, action 2 earns -2, in the same state.
  Transition good;
  good.candidates = ThreeCandidates();
  good.action_index = 0;
  good.reward = 2.0f;
  good.done = true;
  Transition bad = good;
  bad.action_index = 2;
  bad.reward = -2.0f;
  for (int i = 0; i < 32; ++i) {
    buffer.Add(good);
    buffer.Add(bad);
  }
  util::Rng rng(5);
  for (int step = 0; step < 300; ++step) agent.Train(&buffer, &rng);
  const std::vector<bool> mask(3, true);
  const auto probs = agent.Policy(good.candidates, mask);
  EXPECT_GT(probs[0], probs[2]);
}

TEST(RewardTest, StepRewardShape) {
  // Loss decreased: exponent negative, reward close to -Υ^(-something).
  const double improved = StepReward(2.0, 1.0, 0.0, 0.0);
  const double worsened = StepReward(1.0, 2.0, 0.0, 0.0);
  EXPECT_GT(improved, worsened);
  // Resource costs always reduce the reward.
  EXPECT_GT(improved, StepReward(2.0, 1.0, 0.3, 0.4));
}

TEST(RewardTest, StepRewardBoundedByClamp) {
  // Even an enormous loss spike is clamped to exponent 1.
  const double reward = StepReward(0.1, 100.0, 0.0, 0.0, 8.0);
  EXPECT_NEAR(reward, -8.0, 1e-9);
}

TEST(RewardTest, TerminalBonusAndPenalty) {
  EXPECT_DOUBLE_EQ(TerminalReward(-1.0, true, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(TerminalReward(-1.0, false, 2.0), -3.0);
}

TEST(RewardTest, ShapedDecisionReward) {
  const double base = -1.0;
  // More gain -> more credit; more time -> less credit.
  EXPECT_GT(ShapedDecisionReward(base, 2.0, 0.0),
            ShapedDecisionReward(base, 0.5, 0.0));
  EXPECT_GT(ShapedDecisionReward(base, 1.0, 0.0),
            ShapedDecisionReward(base, 1.0, 1.0));
  // Staying (no gain, no time) keeps the bare epoch reward.
  EXPECT_DOUBLE_EQ(ShapedDecisionReward(base, 0.0, 0.0), base);
}

// A CRC-valid agent record whose actor Adam moments match the actor's
// tensor count but not its shapes must not load: the next Adam step would
// index each moment by its parameter's size.
TEST(AgentTest, LoadRejectsMomentsShapedUnlikeTheNetworks) {
  const AgentConfig config;
  const DdpgAgent source(config);
  util::ByteWriter fresh;
  util::Save(source, &fresh);
  // A fresh agent's record ends with two unsized Adam states (step count,
  // empty m, empty v: 24 bytes each); swap the actor's for moments sized
  // to a wider input layer.
  std::vector<uint8_t> bytes = fresh.bytes();
  ASSERT_GT(bytes.size(), 48u);
  bytes.resize(bytes.size() - 48);
  util::Rng rng(3);
  nn::Sequential wider = nn::MakeMlp(
      {kActionFeatureDim + 1, config.hidden, config.hidden, 1}, &rng);
  nn::Adam stepped(config.actor_lr);
  stepped.Step(&wider);
  util::ByteWriter tail;
  util::Save(stepped, &tail);
  util::Save(nn::Adam(config.critic_lr), &tail);
  bytes.insert(bytes.end(), tail.bytes().begin(), tail.bytes().end());

  DdpgAgent victim(config);
  util::ByteReader reader(bytes);
  const util::Status status = util::Load(&reader, &victim);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
}

}  // namespace
}  // namespace fedmigr::rl
