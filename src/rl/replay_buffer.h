// Prioritized experience replay (Section III-D, Eqs. 23-29).
//
// Transitions are stored with a priority; sampling probability follows
// P(z) = p_z^ξ / Σ p^ξ (Eq. 26) via a sum-tree, and sampled transitions
// carry the importance weight μ_z = (|B| P(z))^(-β) / max_i μ_i (Eq. 29)
// that corrects the bias prioritization introduces.

#ifndef FEDMIGR_RL_REPLAY_BUFFER_H_
#define FEDMIGR_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::rl {

// One decision step: in state s (the K candidate (source, destination)
// feature rows) the agent chose `action_index`, received `reward`, and moved
// to the state whose candidate rows are `next_candidates` (empty when the
// episode ended).
struct Transition {
  std::vector<std::vector<float>> candidates;       // K x F
  int action_index = 0;
  float reward = 0.0f;
  bool done = false;
  std::vector<std::vector<float>> next_candidates;  // K x F, empty if done

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(candidates);
    ar.Io(action_index);
    ar.Io(reward);
    ar.Io(done);
    ar.Io(next_candidates);
    ar.Check(action_index >= 0 &&
                 (candidates.empty() ||
                  action_index < static_cast<int>(candidates.size())),
             "transition action out of range");
    return ar.status();
  }
};

// Binary sum-tree over priorities for O(log n) sampling and updates.
class SumTree {
 public:
  explicit SumTree(size_t capacity);

  void Set(size_t index, double priority);
  double Get(size_t index) const;
  double Total() const;
  // Index whose cumulative-priority interval contains `mass` in [0, Total).
  size_t Find(double mass) const;

  size_t capacity() const { return capacity_; }
  // The first `n` leaf priorities.
  std::span<const double> Leaves(size_t n) const;

 private:
  size_t capacity_;
  // Leaves live at [base_, base_ + capacity_) with base_ the next power of
  // two >= capacity, so parent/child arithmetic is uniform.
  size_t base_;
  std::vector<double> nodes_;
};

struct SampledTransition {
  size_t index = 0;            // for UpdatePriority after the TD step
  double weight = 1.0;         // importance-sampling weight μ_z
  const Transition* transition = nullptr;
};

class PrioritizedReplayBuffer {
 public:
  // `xi` is the prioritization exponent ξ (0 = uniform), `beta` the
  // importance-sampling exponent.
  PrioritizedReplayBuffer(size_t capacity, double xi = 0.6,
                          double beta = 0.4);

  // Inserts with maximal current priority (new experience is replayed at
  // least once). Overwrites the oldest entry when full.
  void Add(Transition transition);

  // Samples `batch_size` transitions (with replacement) according to the
  // priority distribution. Requires a non-empty buffer.
  std::vector<SampledTransition> Sample(size_t batch_size, util::Rng* rng);

  // Re-prioritizes a transition after its TD error was recomputed (Eq. 25's
  // blended priority is computed by the caller).
  void UpdatePriority(size_t index, double priority);

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  // Snapshot layout: the full buffer state — stored transitions, write
  // cursor, and the sum-tree priorities — so a resumed run replays (and
  // re-prioritizes) identically. Loading fails if the serialized capacity
  // does not match this buffer's.
  template <class Ar>
  util::Status Visit(Ar& ar);

 private:
  size_t capacity_;
  // SNAPSHOT-SKIP(prioritization hyperparameters, from configuration)
  double xi_;
  // SNAPSHOT-SKIP(prioritization hyperparameters, from configuration)
  double beta_;
  std::vector<Transition> storage_;
  SumTree tree_;
  size_t next_ = 0;
  size_t size_ = 0;
  double max_priority_ = 1.0;
};

}  // namespace fedmigr::rl

#endif  // FEDMIGR_RL_REPLAY_BUFFER_H_
