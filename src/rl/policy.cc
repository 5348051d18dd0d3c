#include "rl/policy.h"

#include <algorithm>
#include <numeric>

#include "opt/flmm.h"
#include "rl/state.h"
#include "util/logging.h"

namespace fedmigr::rl {

DrlMigrationPolicy::DrlMigrationPolicy(std::shared_ptr<DdpgAgent> agent,
                                       DrlPolicyOptions options)
    : agent_(std::move(agent)),
      options_(options),
      buffer_(options.buffer_capacity),
      rng_(options.seed) {
  FEDMIGR_CHECK(agent_ != nullptr);
}

fl::MigrationPlan DrlMigrationPolicy::Plan(const fl::PolicyContext& ctx) {
  const int k = ctx.topology->num_clients();
  const auto gain = fl::MigrationGainMatrix(ctx);

  std::vector<int> flmm_destination;
  if (options_.rho > 0.0) {
    const opt::FlmmPlan plan =
        opt::SolveFlmm(gain, *ctx.topology, ctx.model_bytes, {});
    flmm_destination = plan.destination;
  }

  // Sources act in random order; each destination can be claimed once.
  std::vector<int> order(static_cast<size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  ctx.rng->Shuffle(order);
  std::vector<bool> claimed(static_cast<size_t>(k), false);
  std::vector<int> destination(static_cast<size_t>(k));
  std::iota(destination.begin(), destination.end(), 0);

  std::vector<PendingDecision> decisions;
  decisions.reserve(static_cast<size_t>(k));
  for (int src : order) {
    // Crashed/unavailable sources hold their model; no decision is made
    // (and none is recorded for learning) on their behalf.
    if (!fl::ClientAvailable(ctx, src)) continue;
    PendingDecision decision;
    decision.src = src;
    decision.candidates = CandidateRows(ctx, gain, src);
    std::vector<bool> mask(static_cast<size_t>(k));
    for (int j = 0; j < k; ++j) {
      mask[static_cast<size_t>(j)] = !claimed[static_cast<size_t>(j)] &&
                                     fl::ClientAvailable(ctx, j);
    }
    mask[static_cast<size_t>(src)] = true;

    int action;
    if (!flmm_destination.empty() && rng_.Bernoulli(options_.rho) &&
        mask[static_cast<size_t>(
            flmm_destination[static_cast<size_t>(src)])]) {
      action = flmm_destination[static_cast<size_t>(src)];
    } else {
      action = agent_->SelectAction(decision.candidates, mask,
                                    options_.explore, &rng_);
    }
    decision.action = action;
    if (action != src) {
      decision.gain =
          gain[static_cast<size_t>(src)][static_cast<size_t>(action)];
      decision.time_norm =
          ctx.topology->TransferSeconds(src, action, ctx.model_bytes) /
          MaxTransferSeconds(ctx);
    }
    destination[static_cast<size_t>(src)] = action;
    if (action != src) claimed[static_cast<size_t>(action)] = true;
    decisions.push_back(std::move(decision));
  }

  if (options_.online_learning) {
    // The transitions of the previous epoch get their successor state: the
    // candidate rows just computed for the same source.
    std::vector<const std::vector<std::vector<float>>*> rows_by_src(
        static_cast<size_t>(k), nullptr);
    for (const auto& decision : decisions) {
      rows_by_src[static_cast<size_t>(decision.src)] = &decision.candidates;
    }
    FEDMIGR_CHECK_EQ(awaiting_next_state_.size(), awaiting_srcs_.size());
    for (size_t t = 0; t < awaiting_next_state_.size(); ++t) {
      Transition& transition = awaiting_next_state_[t];
      const int src = awaiting_srcs_[t];
      const auto* rows = rows_by_src[static_cast<size_t>(src)];
      if (!transition.done && rows != nullptr) {
        transition.next_candidates = *rows;
      }
      buffer_.Add(std::move(transition));
    }
    awaiting_next_state_.clear();
    awaiting_srcs_.clear();
    awaiting_reward_ = std::move(decisions);
  }

  return fl::PlanFromDestinations(destination);
}

template <class Ar>
util::Status DrlMigrationPolicy::Visit(Ar& ar) {
  ar.Io(*agent_);
  ar.Io(buffer_);
  ar.Io(rng_);
  ar.Io(awaiting_reward_);
  ar.Io(awaiting_next_state_);
  ar.Io(awaiting_srcs_);
  ar.Check(awaiting_srcs_.size() == awaiting_next_state_.size(),
           "pending transition queues out of sync");
  return ar.status();
}

FEDMIGR_INSTANTIATE_VISIT(DrlMigrationPolicy);

void DrlMigrationPolicy::SaveState(util::ByteWriter* writer) const {
  util::Save(*this, writer);
}

util::Status DrlMigrationPolicy::LoadState(util::ByteReader* reader) {
  return util::Load(reader, this);
}

void DrlMigrationPolicy::Feedback(const fl::PolicyFeedback& feedback) {
  if (!options_.online_learning) return;
  double reward =
      StepReward(feedback.loss_before, feedback.loss_after,
                 feedback.compute_cost_fraction,
                 feedback.bandwidth_cost_fraction);
  if (feedback.done) {
    reward = TerminalReward(reward, feedback.success);
  }
  for (auto& decision : awaiting_reward_) {
    Transition transition;
    transition.candidates = std::move(decision.candidates);
    transition.action_index = decision.action;
    transition.reward = static_cast<float>(ShapedDecisionReward(
        reward, decision.gain, decision.time_norm));
    transition.done = feedback.done;
    awaiting_next_state_.push_back(std::move(transition));
    awaiting_srcs_.push_back(decision.src);
  }
  awaiting_reward_.clear();
  for (int s = 0; s < options_.train_steps_per_feedback; ++s) {
    agent_->Train(&buffer_, &rng_);
  }
}

}  // namespace fedmigr::rl
