#include "rl/agent.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "nn/serialize.h"
#include "nn/zoo.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace fedmigr::rl {

namespace {

// Feature rows by reference: one candidate set, or the rows of several
// samples stacked for one forward.
using RowRefs = std::vector<const std::vector<float>*>;

nn::Tensor RowsToTensor(const RowRefs& rows) {
  FEDMIGR_CHECK(!rows.empty());
  const size_t f = rows[0]->size();
  nn::Tensor tensor({static_cast<int>(rows.size()), static_cast<int>(f)});
  float* dst = tensor.data();
  for (const std::vector<float>* row : rows) {
    FEDMIGR_CHECK_EQ(row->size(), f);
    std::copy(row->begin(), row->end(), dst);
    dst += f;
  }
  return tensor;
}

// Runs `model` on a [K, F] tensor assembled from rows; returns [K] column.
// A training forward also leaves the caches a backward pass reads.
std::vector<double> ForwardColumn(nn::Sequential* model, const RowRefs& rows,
                                  bool training = false) {
  const nn::Tensor out = model->Forward(RowsToTensor(rows), training);
  std::vector<double> column(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    column[i] = out[static_cast<int64_t>(i)];
  }
  return column;
}

// Whether a transition's target bootstraps from its successor state.
bool Bootstraps(const Transition& z) {
  return !z.done && !z.next_candidates.empty();
}

std::vector<double> SoftmaxMasked(std::span<const double> scores,
                                  const std::vector<bool>& mask) {
  FEDMIGR_CHECK_EQ(scores.size(), mask.size());
  // A non-finite score (the actor diverged — e.g. trained on Byzantine
  // losses) cannot be exponentiated; those actions are excluded, and if no
  // finite-scored action remains the policy degrades to uniform over the
  // mask rather than emitting NaN probabilities.
  double max_score = -1e300;
  bool any = false;
  bool any_finite = false;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (mask[i]) {
      any = true;
      if (std::isfinite(scores[i])) {
        max_score = std::max(max_score, scores[i]);
        any_finite = true;
      }
    }
  }
  FEDMIGR_CHECK(any) << "all actions masked";
  std::vector<double> probs(scores.size(), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!mask[i]) continue;
    if (!any_finite) {
      probs[i] = 1.0;
    } else if (std::isfinite(scores[i])) {
      probs[i] = std::exp(scores[i] - max_score);
    }
    total += probs[i];
  }
  for (auto& p : probs) p /= total;
  return probs;
}

}  // namespace

DdpgAgent::DdpgAgent(const AgentConfig& config) : config_(config) {
  util::Rng rng(config_.seed);
  const std::vector<int> dims = {kActionFeatureDim, config_.hidden,
                                 config_.hidden, 1};
  actor_ = nn::MakeMlp(dims, /*softmax_output=*/false, &rng);
  critic_ = nn::MakeMlp(dims, /*softmax_output=*/false, &rng);
  target_actor_ = actor_;
  target_critic_ = critic_;
  actor_optimizer_ = std::make_unique<nn::Adam>(config_.actor_lr);
  critic_optimizer_ = std::make_unique<nn::Adam>(config_.critic_lr);
}

std::vector<double> DdpgAgent::Score(
    const std::vector<std::vector<float>>& candidates, bool use_target) {
  RowRefs rows;
  for (const auto& row : candidates) rows.push_back(&row);
  return ForwardColumn(use_target ? &target_actor_ : &actor_, rows);
}

std::vector<double> DdpgAgent::Policy(
    const std::vector<std::vector<float>>& candidates,
    const std::vector<bool>& mask) {
  return SoftmaxMasked(Score(candidates), mask);
}

int DdpgAgent::SelectAction(const std::vector<std::vector<float>>& candidates,
                            const std::vector<bool>& mask, bool explore,
                            util::Rng* rng) {
  const std::vector<double> probs = Policy(candidates, mask);
  if (explore) {
    return rng->Categorical(probs);
  }
  int best = -1;
  for (size_t i = 0; i < probs.size(); ++i) {
    if (!mask[i]) continue;
    if (best < 0 || probs[i] > probs[static_cast<size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

double DdpgAgent::Q(const std::vector<float>& features, bool use_target) {
  return ForwardColumn(use_target ? &target_critic_ : &critic_,
                       {&features})[0];
}

std::vector<double> DdpgAgent::TargetValues(
    const std::vector<SampledTransition>& batch) {
  FEDMIGR_TRACE_SCOPE("rl/target_forward");
  // h_t (Eq. 21): r + γ Q'(s', π'(s')), or r alone at an episode's end.
  std::vector<double> targets;
  targets.reserve(batch.size());
  RowRefs next_rows;
  for (const auto& sample : batch) {
    const Transition& z = *sample.transition;
    targets.push_back(z.reward);
    if (!Bootstraps(z)) continue;
    for (const auto& row : z.next_candidates) next_rows.push_back(&row);
  }
  if (next_rows.empty()) return targets;

  // π'(s'): the target actor's argmax over each successor's candidates
  // (first maximum wins).
  const std::vector<double> next_scores =
      ForwardColumn(&target_actor_, next_rows);
  RowRefs best_rows;
  size_t offset = 0;
  for (const auto& sample : batch) {
    const Transition& z = *sample.transition;
    if (!Bootstraps(z)) continue;
    size_t best = 0;
    for (size_t j = 1; j < z.next_candidates.size(); ++j) {
      if (next_scores[offset + j] > next_scores[offset + best]) best = j;
    }
    best_rows.push_back(&z.next_candidates[best]);
    offset += z.next_candidates.size();
  }

  const std::vector<double> next_q = ForwardColumn(&target_critic_, best_rows);
  size_t next = 0;
  for (size_t b = 0; b < batch.size(); ++b) {
    if (!Bootstraps(*batch[b].transition)) continue;
    targets[b] += config_.gamma * next_q[next++];
  }
  return targets;
}

TrainStats DdpgAgent::Train(PrioritizedReplayBuffer* buffer, util::Rng* rng) {
  FEDMIGR_TRACE_SCOPE("rl/train_step");
  TrainStats stats;
  if (buffer->size() < static_cast<size_t>(config_.batch_size)) return stats;

  const auto batch = buffer->Sample(
      static_cast<size_t>(config_.batch_size), rng);
  const int n = static_cast<int>(batch.size());

  // No weight changes before the optimizer steps below, so each pass runs
  // once over every sample's rows stacked (DESIGN §8: a row's bits do not
  // depend on the rows stacked with it), and each backward takes one row
  // segment per sample, adding the samples' weight gradients in turn as a
  // backward per sample would. A network's caches and gradients go once no
  // pass reads them (a backward re-creates the gradients zeroed).
  const std::vector<double> targets = TargetValues(batch);
  target_actor_.ReleaseBuffers();
  target_critic_.ReleaseBuffers();
  RowRefs candidates;
  std::vector<int> candidate_ends;
  for (const auto& sample : batch) {
    for (const auto& row : sample.transition->candidates) {
      candidates.push_back(&row);
    }
    candidate_ends.push_back(static_cast<int>(candidates.size()));
  }
  // mean_j Q(s, j), the advantage baseline. The critic's training forward
  // replaces this pass's caches, so they go at once.
  std::vector<double> mean_qs;
  {
    FEDMIGR_TRACE_SCOPE("rl/baseline_forward");
    const std::vector<double> all_q = ForwardColumn(&critic_, candidates);
    for (int b = 0, j = 0; b < n; ++b) {
      const int begin = j;
      double sum = 0.0;
      for (; j < candidate_ends[b]; ++j) sum += all_q[j];
      mean_qs.push_back(sum / static_cast<double>(j - begin));
    }
  }
  critic_.ReleaseBuffers();
  actor_.ZeroGrads();

  // Critic: weighted squared TD error against the target h_t on each
  // sample's taken-action row; its input gradient gives |∇_a Q| (Eq. 25).
  std::vector<double> q_values;
  nn::Tensor q_input_grad;
  {
    FEDMIGR_TRACE_SCOPE("rl/critic_update");
    RowRefs rows;
    std::vector<int> ends;
    for (const auto& sample : batch) {
      const Transition& z = *sample.transition;
      rows.push_back(&z.candidates[static_cast<size_t>(z.action_index)]);
      ends.push_back(static_cast<int>(rows.size()));
    }
    q_values = ForwardColumn(&critic_, rows, /*training=*/true);
    nn::Tensor grad_q({n, 1});
    for (int b = 0; b < n; ++b) {
      grad_q[b] = static_cast<float>(-2.0 * (targets[b] - q_values[b])) *
                  static_cast<float>(batch[b].weight) / static_cast<float>(n);
    }
    q_input_grad = critic_.Backward(grad_q, ends);
  }

  // Actor: advantage-weighted log-policy gradient, A = Q(s, a) -
  // mean_j Q(s, j) and loss = -μ A log π(a|s), plus the entropy
  // regularizer, on each sample's slice of one forward over all candidates
  // (the actor has no train-only behaviour: these are inference scores).
  {
    FEDMIGR_TRACE_SCOPE("rl/actor_update");
    const std::vector<double> scores =
        ForwardColumn(&actor_, candidates, /*training=*/true);
    nn::Tensor grad_scores({static_cast<int>(candidates.size()), 1});
    for (int b = 0, begin = 0; b < n; begin = candidate_ends[b++]) {
      const int k = candidate_ends[b] - begin;
      const std::vector<double> probs = SoftmaxMasked(
          std::span(scores).subspan(begin, k), std::vector<bool>(k, true));
      double entropy = 0.0;
      for (double p : probs) {
        if (p > 1e-12) entropy -= p * std::log(p);
      }
      const double advantage = q_values[b] - mean_qs[b];
      for (int j = 0; j < k; ++j) {
        // d(-A log π(a))/d s_j = -A (1{j=a} - π_j) and, for the entropy,
        // d(-H)/d s_j = π_j (log π_j + H).
        const double indicator =
            j == batch[b].transition->action_index ? 1.0 : 0.0;
        const double pg = -advantage * (indicator - probs[j]);
        const double ent = config_.entropy_beta * probs[j] *
                           (std::log(std::max(probs[j], 1e-12)) + entropy);
        grad_scores[begin + j] = static_cast<float>(pg + ent) *
                                 static_cast<float>(batch[b].weight) /
                                 static_cast<float>(n);
      }
    }
    actor_.BackwardParams(grad_scores, candidate_ends);
  }

  for (int b = 0; b < n; ++b) {
    const double td_error = targets[b] - q_values[b];
    const float weight = static_cast<float>(batch[b].weight);
    // |∇_a Q|, the critic's sensitivity to the action features: the sum
    // Tensor::Norm takes, over this sample's row of the input gradient.
    double grad_sq = 0.0;
    for (int f = 0; f < q_input_grad.dim(1); ++f) {
      const float g = q_input_grad.At(b, f);
      grad_sq += static_cast<double>(g) * g;
    }
    const double grad_action_norm =
        std::sqrt(grad_sq) /
        std::max(1e-12, 2.0 * std::fabs(td_error) * weight / batch.size());
    // Priority (Eq. 25): ε |φ| + (1-ε) |∇_a Q|.
    buffer->UpdatePriority(
        batch[b].index,
        config_.priority_epsilon * std::fabs(td_error) +
            (1.0 - config_.priority_epsilon) * grad_action_norm);
    stats.critic_loss += td_error * td_error;
    stats.mean_td_error += std::fabs(td_error);
    stats.mean_q += q_values[b];
  }
  stats.critic_loss /= n;
  stats.mean_td_error /= n;
  stats.mean_q /= n;

  critic_optimizer_->Step(&critic_);
  actor_optimizer_->Step(&actor_);
  // Between train steps only the parameters need to stay.
  critic_.ReleaseBuffers();
  actor_.ReleaseBuffers();

  // Soft target updates: θ' ← τ θ + (1-τ) θ'.
  target_actor_.LerpParamsFrom(actor_, static_cast<float>(config_.soft_tau));
  target_critic_.LerpParamsFrom(critic_, static_cast<float>(config_.soft_tau));

  if (obs::Telemetry::enabled()) {
    static obs::Counter* train_steps =
        obs::Registry::Default().GetCounter("rl/train_steps");
    static obs::Gauge* critic_loss_gauge =
        obs::Registry::Default().GetGauge("rl/critic_loss");
    static obs::Gauge* td_error_gauge =
        obs::Registry::Default().GetGauge("rl/mean_td_error");
    static obs::Gauge* mean_q_gauge =
        obs::Registry::Default().GetGauge("rl/mean_q");
    static obs::Gauge* replay_size =
        obs::Registry::Default().GetGauge("rl/replay_size");
    train_steps->Increment();
    critic_loss_gauge->Set(stats.critic_loss);
    td_error_gauge->Set(stats.mean_td_error);
    mean_q_gauge->Set(stats.mean_q);
    replay_size->Set(static_cast<double>(buffer->size()));
  }
  return stats;
}

template <class Ar>
util::Status DdpgAgent::Visit(Ar& ar) {
  uint32_t hidden = static_cast<uint32_t>(config_.hidden);
  ar.Io(hidden);
  ar.Check(hidden == static_cast<uint32_t>(config_.hidden),
           "agent architecture mismatch");
  nn::IoParams(ar, &actor_);
  nn::IoParams(ar, &critic_);
  nn::IoParams(ar, &target_actor_);
  nn::IoParams(ar, &target_critic_);
  ar.Io(*actor_optimizer_);
  ar.Io(*critic_optimizer_);
  ar.Check(
      [&] {
        return actor_optimizer_->FitsModel(actor_) &&
               critic_optimizer_->FitsModel(critic_);
      },
      "agent Adam moments do not match its networks");
  return ar.status();
}

FEDMIGR_INSTANTIATE_VISIT(DdpgAgent);

double StepReward(double loss_before, double loss_after,
                  double compute_cost_fraction, double bandwidth_cost_fraction,
                  double upsilon) {
  FEDMIGR_CHECK_GT(upsilon, 1.0);
  const double denom = std::max(std::fabs(loss_before), 1e-8);
  const double relative_delta =
      std::clamp((loss_after - loss_before) / denom, -1.0, 1.0);
  return -std::pow(upsilon, relative_delta) - compute_cost_fraction -
         bandwidth_cost_fraction;
}

double TerminalReward(double step_reward, bool success, double bonus) {
  return step_reward + (success ? bonus : -bonus);
}

double ShapedDecisionReward(double epoch_reward, double emd_gain,
                            double time_norm, double gain_weight,
                            double time_weight) {
  return epoch_reward + gain_weight * emd_gain - time_weight * time_norm;
}

}  // namespace fedmigr::rl
