#include "rl/pretrain.h"

#include <gtest/gtest.h>

#include "rl/pretrained_agent.h"

namespace fedmigr::rl {
namespace {

SurrogateConfig SmallEnv() {
  SurrogateConfig config;
  config.num_clients = 6;
  config.num_classes = 6;
  config.num_lans = 2;
  config.episode_epochs = 12;
  config.agg_period = 6;
  return config;
}

TEST(PretrainTest, RunsRequestedEpisodes) {
  DdpgAgent agent(AgentConfig{});
  PretrainOptions options;
  options.episodes = 3;
  const PretrainReport report = Pretrain(&agent, SmallEnv(), options);
  EXPECT_EQ(report.episodes, 3);
  // Every source decides every epoch: 6 clients x 12 epochs x 3 episodes.
  EXPECT_EQ(report.transitions, 6 * 12 * 3);
}

TEST(PretrainTest, TrainedActorPrefersGainOverStaying) {
  // After pre-training, a high-gain cheap action must outscore staying
  // home — the minimal sanity property of the learned policy.
  DdpgAgent agent = MakePretrainedAgent(6, 6, 2);
  const std::vector<float> high_gain = {1.0f, 1.0f, 0.1f, 0.0f,
                                        0.5f, 0.5f, 0.1f, 0.1f};
  const std::vector<float> stay = {0.0f, 1.0f, 0.0f, 1.0f,
                                   0.5f, 0.5f, 0.1f, 0.1f};
  const auto scores = agent.Score({high_gain, stay});
  EXPECT_GT(scores[0], scores[1]);
}

TEST(PretrainTest, TrainedActorRanksGain) {
  DdpgAgent agent = MakePretrainedAgent(6, 6, 2);
  const std::vector<float> high = {1.0f, 0.0f, 0.3f, 0.0f,
                                   0.5f, 0.5f, 0.1f, 0.1f};
  const std::vector<float> low = {0.05f, 0.0f, 0.3f, 0.0f,
                                  0.5f, 0.5f, 0.1f, 0.1f};
  const auto scores = agent.Score({high, low});
  EXPECT_GT(scores[0], scores[1]);
}

TEST(PretrainTest, DeterministicGivenSeeds) {
  auto run = []() {
    DdpgAgent agent(AgentConfig{});
    PretrainOptions options;
    options.episodes = 2;
    return Pretrain(&agent, SmallEnv(), options);
  };
  const PretrainReport a = run();
  const PretrainReport b = run();
  EXPECT_DOUBLE_EQ(a.first_episode_return, b.first_episode_return);
  EXPECT_DOUBLE_EQ(a.last_episode_return, b.last_episode_return);
}

}  // namespace
}  // namespace fedmigr::rl
