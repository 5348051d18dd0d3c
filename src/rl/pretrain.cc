#include "rl/pretrain.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "opt/flmm.h"
#include "util/logging.h"

namespace fedmigr::rl {

PretrainReport Pretrain(DdpgAgent* agent, const SurrogateConfig& env_config,
                        const PretrainOptions& options) {
  FEDMIGR_TRACE_SCOPE("rl/pretrain");
  FEDMIGR_CHECK(agent != nullptr);
  PretrainReport report;
  util::Rng rng(options.seed);
  SurrogateEnv env(env_config, options.seed ^ 0xabcdef);
  PrioritizedReplayBuffer buffer(options.buffer_capacity);

  const int k = env.num_clients();
  // Decisions of the previous epoch waiting for their next-state rows.
  struct Pending {
    int src = 0;
    std::vector<std::vector<float>> candidates;
    int action = 0;
    double reward = 0.0;
    bool done = false;
  };

  for (int episode = 0; episode < options.episodes; ++episode) {
    env.Reset();
    const double progress = options.episodes > 1
                                ? static_cast<double>(episode) /
                                      (options.episodes - 1)
                                : 1.0;
    const double rho =
        options.rho_start + (options.rho_end - options.rho_start) * progress;

    double episode_return = 0.0;
    std::vector<Pending> pending;
    bool done = false;
    while (!done) {
      // ρ-greedy: one FLMM plan per epoch covers the solver-guided picks.
      std::vector<int> flmm_destination;
      if (rho > 0.0) {
        opt::FlmmOptions flmm_options;
        const opt::FlmmPlan plan =
            opt::SolveFlmm(env.GainMatrix(), env.topology(),
                           env_config.model_bytes, flmm_options);
        flmm_destination = plan.destination;
      }

      std::vector<Pending> current;
      current.reserve(static_cast<size_t>(k));
      for (int src = 0; src < k; ++src) {
        Pending decision;
        decision.src = src;
        decision.candidates = env.Candidates(src);
        const std::vector<bool> mask = env.Mask(src);
        int action;
        if (!flmm_destination.empty() && rng.Bernoulli(rho) &&
            mask[static_cast<size_t>(
                flmm_destination[static_cast<size_t>(src)])]) {
          action = flmm_destination[static_cast<size_t>(src)];
        } else {
          action = agent->SelectAction(decision.candidates, mask,
                                       /*explore=*/true, &rng);
        }
        decision.action = action;
        env.Choose(src, action);
        current.push_back(std::move(decision));
      }

      const SurrogateEnv::StepResult step = env.EndEpoch();
      episode_return += step.reward;
      done = step.done;
      for (auto& decision : current) {
        decision.reward =
            step.shaped_rewards[static_cast<size_t>(decision.src)];
        decision.done = step.done;
      }

      // The previous epoch's decisions now know their successor state.
      for (auto& prev : pending) {
        Transition transition;
        transition.candidates = std::move(prev.candidates);
        transition.action_index = prev.action;
        transition.reward = static_cast<float>(prev.reward);
        transition.done = prev.done;
        transition.next_candidates =
            current[static_cast<size_t>(prev.src)].candidates;
        buffer.Add(std::move(transition));
        ++report.transitions;
      }
      pending = std::move(current);

      for (int s = 0; s < options.train_steps_per_epoch; ++s) {
        agent->Train(&buffer, &rng);
      }
    }
    // Flush terminal decisions (no successor state).
    for (auto& prev : pending) {
      Transition transition;
      transition.candidates = std::move(prev.candidates);
      transition.action_index = prev.action;
      transition.reward = static_cast<float>(prev.reward);
      transition.done = true;
      buffer.Add(std::move(transition));
      ++report.transitions;
    }

    if (episode == 0) report.first_episode_return = episode_return;
    report.last_episode_return = episode_return;
    ++report.episodes;
  }
  return report;
}

}  // namespace fedmigr::rl
