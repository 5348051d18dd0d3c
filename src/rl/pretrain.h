// Offline pre-training of the DDPG agent on the surrogate environment
// (Alg. 1 driven by SurrogateEnv), with ρ-greedy exploration: with
// probability ρ the action comes from the relaxed-FLMM solver, otherwise
// from the actor network (Section III-D "Action Exploration").

#ifndef FEDMIGR_RL_PRETRAIN_H_
#define FEDMIGR_RL_PRETRAIN_H_

#include "rl/agent.h"
#include "rl/replay_buffer.h"
#include "rl/surrogate.h"

namespace fedmigr::rl {

struct PretrainOptions {
  int episodes = 20;
  double rho_start = 0.6;  // FLMM-guided exploration probability, decayed
  double rho_end = 0.05;
  int train_steps_per_epoch = 1;
  size_t buffer_capacity = 8192;
  uint64_t seed = 11;
};

struct PretrainReport {
  double first_episode_return = 0.0;
  double last_episode_return = 0.0;
  int episodes = 0;
  int transitions = 0;
};

// Trains `agent` in place. Returns aggregate learning statistics (episode
// returns are the undiscounted reward sums, useful as a learning signal in
// tests: the last episodes should out-earn the first).
PretrainReport Pretrain(DdpgAgent* agent, const SurrogateConfig& env_config,
                        const PretrainOptions& options);

}  // namespace fedmigr::rl

#endif  // FEDMIGR_RL_PRETRAIN_H_
