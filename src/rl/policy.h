// DRL-driven migration policy: the bridge between the DDPG agent and the FL
// trainer. This is the policy FedMigr proper runs with.
//
// Plan(): every source client's candidate rows are scored by the actor; a
// destination is picked greedily (or sampled when exploring), with
// destinations claimed at most once per round and an optional ρ-greedy mix
// of relaxed-FLMM actions. Feedback(): the trainer's per-epoch outcome is
// turned into the Eq. 17/18 reward, pending transitions are completed with
// their successor states and pushed into the replay buffer, and (when
// online learning is enabled) the agent takes gradient steps — so the agent
// keeps adapting to the live system exactly as Section III-C describes.

#ifndef FEDMIGR_RL_POLICY_H_
#define FEDMIGR_RL_POLICY_H_

#include <memory>
#include <vector>

#include "fl/policies.h"
#include "rl/agent.h"
#include "rl/replay_buffer.h"

namespace fedmigr::rl {

struct DrlPolicyOptions {
  // Sample the softmax policy rather than argmax. Sampling is the default:
  // the stochastic gain-weighted policy is what makes migration effective
  // (deterministic matching degenerates; see AgentConfig::entropy_beta).
  bool explore = true;
  double rho = 0.0;            // FLMM-guided exploration probability
  bool online_learning = false;
  int train_steps_per_feedback = 1;
  size_t buffer_capacity = 4096;
  uint64_t seed = 23;
};

class DrlMigrationPolicy : public fl::MigrationPolicy {
 public:
  // The policy shares (and may keep training) the given agent.
  DrlMigrationPolicy(std::shared_ptr<DdpgAgent> agent,
                     DrlPolicyOptions options);

  fl::MigrationPlan Plan(const fl::PolicyContext& ctx) override;
  void Feedback(const fl::PolicyFeedback& feedback) override;
  std::string name() const override { return "fedmigr-drl"; }

  // Snapshot hooks (see Visit).
  void SaveState(util::ByteWriter* writer) const override;
  util::Status LoadState(util::ByteReader* reader) override;

  // Snapshot layout: agent networks + Adam moments, the prioritized replay
  // buffer, the policy RNG, and the in-flight decision queues.
  template <class Ar>
  util::Status Visit(Ar& ar);

  const DdpgAgent& agent() const { return *agent_; }

 private:
  struct PendingDecision {
    int src = 0;
    std::vector<std::vector<float>> candidates;
    int action = 0;
    // Realized divergence gain and normalized link time of the chosen
    // action, for ShapedDecisionReward.
    double gain = 0.0;
    double time_norm = 0.0;

    template <class Ar>
    util::Status Visit(Ar& ar) {
      ar.Io(src);
      ar.Io(candidates);
      ar.Io(action);
      ar.Io(gain);
      ar.Io(time_norm);
      return ar.status();
    }
  };

  std::shared_ptr<DdpgAgent> agent_;
  // SNAPSHOT-SKIP(configuration, supplied identically on resume)
  DrlPolicyOptions options_;
  PrioritizedReplayBuffer buffer_;
  util::Rng rng_;
  // Decisions awaiting reward (set by Feedback) and successor state (set by
  // the next Plan). `awaiting_srcs_` parallels `awaiting_next_state_`.
  std::vector<PendingDecision> awaiting_reward_;
  std::vector<Transition> awaiting_next_state_;
  std::vector<int> awaiting_srcs_;
};

}  // namespace fedmigr::rl

#endif  // FEDMIGR_RL_POLICY_H_
