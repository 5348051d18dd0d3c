// DDPG agent for migration-policy generation (Section III-D, Alg. 1).
//
// The actor scores candidate (source, destination) feature rows; a softmax
// over the K candidate scores is the stochastic policy π(a|s). The critic
// maps a candidate row to Q(s, a). Both have slowly-tracking target copies
// (soft updates), and learning consumes prioritized-replay batches with
// importance-sampling weights. Priorities blend |TD error| with the critic's
// action-gradient magnitude (Eq. 25).

#ifndef FEDMIGR_RL_AGENT_H_
#define FEDMIGR_RL_AGENT_H_

#include <memory>
#include <vector>

#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "rl/replay_buffer.h"
#include "rl/state.h"
#include "util/rng.h"

namespace fedmigr::rl {

struct AgentConfig {
  int hidden = 32;
  double actor_lr = 1e-3;
  double critic_lr = 2e-3;
  double gamma = 0.9;          // discount factor γ
  double soft_tau = 0.01;      // target-network tracking rate
  double priority_epsilon = 0.7;  // ε blending TD error and |∇_a Q| (Eq. 25)
  // Entropy bonus on the actor's softmax policy; keeps scores from
  // saturating so the sampled policy stays stochastic. Stochasticity is
  // load-bearing at deployment: deterministic max-gain matching degenerates
  // (every model always lands on maximally-foreign data and never
  // consolidates — see bench_fig3/maxemd), while a soft gain-weighted
  // policy mixes models and converges.
  double entropy_beta = 0.3;
  int batch_size = 32;
  uint64_t seed = 7;
};

struct TrainStats {
  double critic_loss = 0.0;
  double mean_td_error = 0.0;
  double mean_q = 0.0;
};

class DdpgAgent {
 public:
  explicit DdpgAgent(const AgentConfig& config);

  // Actor scores for each candidate row (higher = preferred).
  std::vector<double> Score(const std::vector<std::vector<float>>& candidates,
                            bool use_target = false);

  // Softmax policy over candidates. `mask[j] == false` removes candidate j.
  std::vector<double> Policy(const std::vector<std::vector<float>>& candidates,
                             const std::vector<bool>& mask);

  // Samples (explore) or argmaxes (exploit) an action from the policy.
  int SelectAction(const std::vector<std::vector<float>>& candidates,
                   const std::vector<bool>& mask, bool explore,
                   util::Rng* rng);

  // Critic estimate for one candidate row.
  double Q(const std::vector<float>& features, bool use_target = false);

  // One learning step on a prioritized batch; updates priorities in place
  // and soft-updates the targets. No-op when the buffer holds fewer than
  // `config.batch_size` transitions.
  TrainStats Train(PrioritizedReplayBuffer* buffer, util::Rng* rng);

  // Snapshot layout: actor/critic/target parameters and both Adam moment
  // sets. Restoring into an agent built with the same architecture resumes
  // training bit-identically; moments shaped unlike the networks are
  // rejected.
  template <class Ar>
  util::Status Visit(Ar& ar);

  const AgentConfig& config() const { return config_; }

 private:
  // Per sample: the Eq. 21 target h_t, from one target-actor forward over
  // every successor's candidates and one target-critic forward over the
  // argmax rows.
  std::vector<double> TargetValues(const std::vector<SampledTransition>& batch);
  // Per sample: mean_j Q(s, j), the advantage baseline, from one critic
  // forward over every sample's candidates.
  std::vector<double> MeanCandidateQ(
      const std::vector<SampledTransition>& batch);

  AgentConfig config_;
  nn::Sequential actor_;
  nn::Sequential critic_;
  nn::Sequential target_actor_;
  nn::Sequential target_critic_;
  std::unique_ptr<nn::Adam> actor_optimizer_;
  std::unique_ptr<nn::Adam> critic_optimizer_;
};

// Eq. 17: r_t = -Υ^(ΔF/F_prev) - c_t/B_c - b_t/B_b.
double StepReward(double loss_before, double loss_after,
                  double compute_cost_fraction, double bandwidth_cost_fraction,
                  double upsilon = 8.0);

// Eq. 18: terminal reward, ±C depending on success.
double TerminalReward(double step_reward, bool success, double bonus = 2.0);

// Per-decision credit assignment. Eq. 17's reward is shared by every
// source's decision in the epoch; the shaping term re-distributes credit
// toward decisions that realized more divergence gain over cheaper links,
// which is exactly the structure the optimal policy exploits:
//   r_i = r_epoch + gain_weight * emd_gain_i - time_weight * time_norm_i.
double ShapedDecisionReward(double epoch_reward, double emd_gain,
                            double time_norm, double gain_weight = 0.5,
                            double time_weight = 0.2);

}  // namespace fedmigr::rl

#endif  // FEDMIGR_RL_AGENT_H_
