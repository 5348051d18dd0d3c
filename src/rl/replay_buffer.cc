#include "rl/replay_buffer.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/logging.h"

namespace fedmigr::rl {

SumTree::SumTree(size_t capacity) : capacity_(capacity) {
  FEDMIGR_CHECK_GT(capacity, 0u);
  base_ = 1;
  while (base_ < capacity_) base_ <<= 1;
  nodes_.assign(2 * base_, 0.0);
}

void SumTree::Set(size_t index, double priority) {
  FEDMIGR_CHECK_LT(index, capacity_);
  FEDMIGR_CHECK_GE(priority, 0.0);
  size_t node = index + base_;
  const double delta = priority - nodes_[node];
  while (node >= 1) {
    nodes_[node] += delta;
    node /= 2;
  }
}

double SumTree::Get(size_t index) const {
  FEDMIGR_CHECK_LT(index, capacity_);
  return nodes_[index + base_];
}

std::span<const double> SumTree::Leaves(size_t n) const {
  FEDMIGR_CHECK_LE(n, capacity_);
  return std::span<const double>(nodes_.data() + base_, n);
}

double SumTree::Total() const { return nodes_[1]; }

size_t SumTree::Find(double mass) const {
  FEDMIGR_CHECK_GE(mass, 0.0);
  size_t node = 1;
  while (node < base_) {
    const size_t left = 2 * node;
    // Descend left when the mass falls inside the left subtree, and also
    // when the right subtree carries no mass: with `mass >= Total()` (a
    // floating-point edge the caller can hit when scaling a [0, 1) draw by
    // Total()) or a zero-priority padding tail, the plain descent would
    // walk into an empty leaf; steering away from zero-sum subtrees lands
    // on the last leaf that actually carries priority instead.
    if (mass < nodes_[left] || !(nodes_[left + 1] > 0.0)) {
      node = left;
    } else {
      mass -= nodes_[left];
      node = left + 1;
    }
  }
  return std::min(node - base_, capacity_ - 1);
}

PrioritizedReplayBuffer::PrioritizedReplayBuffer(size_t capacity, double xi,
                                                 double beta)
    : capacity_(capacity), xi_(xi), beta_(beta), tree_(capacity) {
  FEDMIGR_CHECK_GE(xi_, 0.0);
  FEDMIGR_CHECK_GE(beta_, 0.0);
  storage_.resize(capacity_);
}

void PrioritizedReplayBuffer::Add(Transition transition) {
  storage_[next_] = std::move(transition);
  tree_.Set(next_, std::pow(max_priority_, xi_));
  next_ = (next_ + 1) % capacity_;
  size_ = std::min(size_ + 1, capacity_);
}

std::vector<SampledTransition> PrioritizedReplayBuffer::Sample(
    size_t batch_size, util::Rng* rng) {
  FEDMIGR_TRACE_SCOPE("rl/replay_sample");
  FEDMIGR_CHECK(!empty());
  std::vector<SampledTransition> batch;
  batch.reserve(batch_size);
  const double total = tree_.Total();
  FEDMIGR_CHECK_GT(total, 0.0);

  // First pass: draw indices and compute raw weights; normalize by the max
  // weight afterwards (Eq. 29).
  double max_weight = 0.0;
  for (size_t b = 0; b < batch_size; ++b) {
    const double mass = rng->Uniform() * total;
    const size_t index = std::min(tree_.Find(mass), size_ - 1);
    const double probability = tree_.Get(index) / total;
    SampledTransition sample;
    sample.index = index;
    sample.weight =
        std::pow(static_cast<double>(size_) * probability, -beta_);
    sample.transition = &storage_[index];
    max_weight = std::max(max_weight, sample.weight);
    batch.push_back(sample);
  }
  if (max_weight > 0.0) {
    for (auto& sample : batch) sample.weight /= max_weight;
  }
  return batch;
}

template <class Ar>
util::Status PrioritizedReplayBuffer::Visit(Ar& ar) {
  uint64_t capacity = capacity_;
  uint64_t next = next_;
  uint64_t size = size_;
  ar.Io(capacity);
  ar.Io(next);
  ar.Io(size);
  ar.Io(max_priority_);
  ar.Check(capacity == capacity_, "replay buffer capacity mismatch");
  ar.Check(size <= capacity && next < capacity &&
               (size == capacity || next == size),
           "inconsistent replay buffer state");
  if (!ar.ok()) return ar.status();
  ar.Io(std::span<Transition>(storage_.data(), size));
  // Tree leaves carry the ξ-exponentiated priorities; storing them verbatim
  // avoids re-deriving (and re-rounding) them. Loading replays them into a
  // fresh tree in index order.
  if constexpr (Ar::kLoading) {
    std::vector<double> leaves(size);
    ar.Io(std::span<double>(leaves));
    ar.Check(
        [&] {
          return std::all_of(leaves.begin(), leaves.end(),
                             [](double p) { return p >= 0.0; });
        },
        "negative replay priority");
    if (!ar.ok()) return ar.status();
    next_ = next;
    size_ = size;
    tree_ = SumTree(capacity_);
    for (size_t i = 0; i < size_; ++i) tree_.Set(i, leaves[i]);
  } else {
    ar.Io(tree_.Leaves(size));
  }
  return ar.status();
}

FEDMIGR_INSTANTIATE_VISIT(PrioritizedReplayBuffer);

void PrioritizedReplayBuffer::UpdatePriority(size_t index, double priority) {
  FEDMIGR_CHECK_LT(index, size_);
  // A non-finite TD error (critic diverged on Byzantine rewards) collapses
  // to the floor priority: the transition stays reachable, the sum tree
  // stays finite.
  if (!std::isfinite(priority)) priority = 1e-6;
  priority = std::max(priority, 1e-6);  // keep every transition reachable
  max_priority_ = std::max(max_priority_, priority);
  tree_.Set(index, std::pow(priority, xi_));
}

}  // namespace fedmigr::rl
