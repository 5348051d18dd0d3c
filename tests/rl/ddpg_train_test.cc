// DdpgAgent::Train runs its critic and actor passes once per batch, over
// every sample's rows stacked, with one row segment per sample in each
// backward. Its contract is the bytes of the per-sample train step it
// replaced: ReferenceDdpg below is a frozen copy of that step (a training
// forward and a backward per sample, gradients accumulated in sample
// order), and both must leave the same agent bytes, the same TrainStats
// and the same replay priorities, step after step.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "rl/agent.h"
#include "rl/replay_buffer.h"
#include "rl/state.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::rl {
namespace {

using Rows = std::vector<std::vector<float>>;

nn::Tensor RowsToTensor(const std::vector<const std::vector<float>*>& rows) {
  const int f = static_cast<int>(rows[0]->size());
  nn::Tensor tensor({static_cast<int>(rows.size()), f});
  float* dst = tensor.data();
  for (const std::vector<float>* row : rows) {
    std::copy(row->begin(), row->end(), dst);
    dst += f;
  }
  return tensor;
}

std::vector<double> ForwardColumn(
    nn::Sequential* model, const std::vector<const std::vector<float>*>& rows,
    bool training = false) {
  const nn::Tensor out = model->Forward(RowsToTensor(rows), training);
  std::vector<double> column(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    column[i] = out[static_cast<int64_t>(i)];
  }
  return column;
}

std::vector<const std::vector<float>*> RefsTo(const Rows& rows) {
  std::vector<const std::vector<float>*> refs;
  for (const auto& row : rows) refs.push_back(&row);
  return refs;
}

std::vector<double> Softmax(const std::vector<double>& scores) {
  double max_score = -1e300;
  for (double s : scores) max_score = std::max(max_score, s);
  std::vector<double> probs(scores.size());
  double total = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    probs[i] = std::exp(scores[i] - max_score);
    total += probs[i];
  }
  for (double& p : probs) p /= total;
  return probs;
}

// The per-sample DDPG train step, frozen: built like DdpgAgent, with its
// snapshot layout, and training with a critic and an actor forward and
// backward per sample.
class ReferenceDdpg {
 public:
  explicit ReferenceDdpg(const AgentConfig& config) : config_(config) {
    util::Rng rng(config_.seed);
    const std::vector<int> dims = {kActionFeatureDim, config_.hidden,
                                   config_.hidden, 1};
    actor_ = nn::MakeMlp(dims, &rng);
    critic_ = nn::MakeMlp(dims, &rng);
    target_actor_ = actor_;
    target_critic_ = critic_;
    actor_optimizer_ = std::make_unique<nn::Adam>(config_.actor_lr);
    critic_optimizer_ = std::make_unique<nn::Adam>(config_.critic_lr);
  }

  TrainStats Train(PrioritizedReplayBuffer* buffer, util::Rng* rng) {
    TrainStats stats;
    if (buffer->size() < static_cast<size_t>(config_.batch_size)) {
      return stats;
    }
    const auto batch =
        buffer->Sample(static_cast<size_t>(config_.batch_size), rng);
    critic_.ZeroGrads();
    actor_.ZeroGrads();
    double critic_loss = 0.0, td_sum = 0.0, q_sum = 0.0;
    for (const SampledTransition& sample : batch) {
      const Transition& z = *sample.transition;
      const float weight = static_cast<float>(sample.weight);
      // h_t = r + γ Q'(s', π'(s')); π' takes the first maximum.
      double target = z.reward;
      if (!z.done && !z.next_candidates.empty()) {
        const std::vector<double> next_scores =
            ForwardColumn(&target_actor_, RefsTo(z.next_candidates));
        size_t best = 0;
        for (size_t j = 1; j < next_scores.size(); ++j) {
          if (next_scores[j] > next_scores[best]) best = j;
        }
        target += config_.gamma *
                  ForwardColumn(&target_critic_,
                                {&z.next_candidates[best]})[0];
      }
      const std::vector<double> all_q =
          ForwardColumn(&critic_, RefsTo(z.candidates));
      double mean_q = 0.0;
      for (double q : all_q) mean_q += q;
      mean_q /= static_cast<double>(all_q.size());

      const auto& action_row =
          z.candidates[static_cast<size_t>(z.action_index)];
      const nn::Tensor q_out =
          critic_.Forward(RowsToTensor({&action_row}), /*training=*/true);
      const double q_value = q_out[0];
      const double td_error = target - q_value;
      nn::Tensor grad_q({1, 1});
      grad_q[0] = static_cast<float>(-2.0 * td_error) * weight /
                  static_cast<float>(batch.size());
      const nn::Tensor grad_input = critic_.Backward(grad_q);
      const double grad_action_norm =
          grad_input.Norm() /
          std::max(1e-12,
                   2.0 * std::fabs(td_error) * weight / batch.size());

      const double advantage = q_value - mean_q;
      const std::vector<double> scores =
          ForwardColumn(&actor_, RefsTo(z.candidates), /*training=*/true);
      const std::vector<double> probs = Softmax(scores);
      double entropy = 0.0;
      for (double p : probs) {
        if (p > 1e-12) entropy -= p * std::log(p);
      }
      nn::Tensor grad_scores({static_cast<int>(scores.size()), 1});
      for (size_t j = 0; j < scores.size(); ++j) {
        const double indicator =
            static_cast<int>(j) == z.action_index ? 1.0 : 0.0;
        const double pg = -advantage * (indicator - probs[j]);
        const double ent = config_.entropy_beta * probs[j] *
                           (std::log(std::max(probs[j], 1e-12)) + entropy);
        grad_scores[static_cast<int64_t>(j)] =
            static_cast<float>(pg + ent) * weight /
            static_cast<float>(batch.size());
      }
      actor_.BackwardParams(grad_scores);

      buffer->UpdatePriority(
          sample.index,
          config_.priority_epsilon * std::fabs(td_error) +
              (1.0 - config_.priority_epsilon) * grad_action_norm);
      critic_loss += td_error * td_error;
      td_sum += std::fabs(td_error);
      q_sum += q_value;
    }
    critic_optimizer_->Step(&critic_);
    actor_optimizer_->Step(&actor_);
    target_actor_.LerpParamsFrom(actor_, static_cast<float>(config_.soft_tau));
    target_critic_.LerpParamsFrom(critic_,
                                  static_cast<float>(config_.soft_tau));
    const double n = static_cast<double>(batch.size());
    stats.critic_loss = critic_loss / n;
    stats.mean_td_error = td_sum / n;
    stats.mean_q = q_sum / n;
    return stats;
  }

  // DdpgAgent::Visit's layout, write side.
  template <class Ar>
  util::Status Visit(Ar& ar) {
    uint32_t hidden = static_cast<uint32_t>(config_.hidden);
    ar.Io(hidden);
    nn::IoParams(ar, &actor_);
    nn::IoParams(ar, &critic_);
    nn::IoParams(ar, &target_actor_);
    nn::IoParams(ar, &target_critic_);
    ar.Io(*actor_optimizer_);
    ar.Io(*critic_optimizer_);
    return ar.status();
  }

 private:
  AgentConfig config_;
  nn::Sequential actor_, critic_, target_actor_, target_critic_;
  std::unique_ptr<nn::Adam> actor_optimizer_, critic_optimizer_;
};

template <class T>
std::vector<uint8_t> Bytes(const T& obj) {
  util::ByteWriter writer;
  util::Save(obj, &writer);
  return writer.bytes();
}

Rows RandomRows(int count, util::Rng* rng) {
  Rows rows(static_cast<size_t>(count),
            std::vector<float>(static_cast<size_t>(kActionFeatureDim)));
  for (auto& row : rows) {
    for (float& x : row) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return rows;
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(DdpgTrainTest, BatchedStepMatchesPerSampleReference) {
  const AgentConfig config;  // batch 32, hidden 32
  // Ragged candidate sets (1 to 10 rows), successors of other sizes,
  // episode ends and empty successors.
  util::Rng data_rng(11);
  PrioritizedReplayBuffer agent_buffer(96);
  for (int i = 0; i < 70; ++i) {
    Transition z;
    z.candidates = RandomRows(1 + data_rng.UniformInt(10),
                              &data_rng);
    z.action_index =
        data_rng.UniformInt(static_cast<int>(z.candidates.size()));
    z.reward = static_cast<float>(data_rng.Uniform(-3.0, 1.0));
    z.done = i % 7 == 3;
    if (i % 11 != 5) {
      z.next_candidates = RandomRows(
          1 + data_rng.UniformInt(10), &data_rng);
    }
    agent_buffer.Add(std::move(z));
  }
  // Unequal priorities, so the importance weights differ from the start.
  for (size_t i = 0; i < agent_buffer.size(); ++i) {
    agent_buffer.UpdatePriority(i, 0.05 + data_rng.Uniform(0.0, 2.0));
  }
  PrioritizedReplayBuffer reference_buffer = agent_buffer;

  DdpgAgent agent(config);
  ReferenceDdpg reference(config);
  ASSERT_EQ(Bytes(agent), Bytes(reference));
  util::Rng agent_rng(23), reference_rng(23);
  for (int step = 0; step < 6; ++step) {
    const TrainStats got = agent.Train(&agent_buffer, &agent_rng);
    const TrainStats want = reference.Train(&reference_buffer, &reference_rng);
    EXPECT_TRUE(SameDouble(got.critic_loss, want.critic_loss)) << step;
    EXPECT_TRUE(SameDouble(got.mean_td_error, want.mean_td_error)) << step;
    EXPECT_TRUE(SameDouble(got.mean_q, want.mean_q)) << step;
    EXPECT_EQ(Bytes(agent), Bytes(reference)) << "agent bytes, step " << step;
    EXPECT_EQ(Bytes(agent_buffer), Bytes(reference_buffer))
        << "replay priorities, step " << step;
  }
}

}  // namespace
}  // namespace fedmigr::rl
