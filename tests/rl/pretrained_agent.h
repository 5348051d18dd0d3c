// A pre-trained DDPG agent as a test fixture. Programs pre-train theirs in
// core::MakeFedMigr, which sizes the surrogate from the topology.

#ifndef FEDMIGR_TESTS_RL_PRETRAINED_AGENT_H_
#define FEDMIGR_TESTS_RL_PRETRAINED_AGENT_H_

#include "rl/agent.h"
#include "rl/pretrain.h"
#include "rl/surrogate.h"

namespace fedmigr::rl {

// Builds an agent with the given config and pre-trains it on a surrogate
// environment sized for `num_clients`.
inline DdpgAgent MakePretrainedAgent(int num_clients, int num_classes,
                                     int num_lans,
                                     const AgentConfig& agent_config = {},
                                     const PretrainOptions& options = {}) {
  DdpgAgent agent(agent_config);
  SurrogateConfig env_config;
  env_config.num_clients = num_clients;
  env_config.num_classes = num_classes;
  env_config.num_lans = num_lans;
  Pretrain(&agent, env_config, options);
  return agent;
}

}  // namespace fedmigr::rl

#endif  // FEDMIGR_TESTS_RL_PRETRAINED_AGENT_H_
