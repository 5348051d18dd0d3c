// Deterministic pseudo-random number generation.
//
// All stochastic components in the library (data synthesis, partitioning,
// SGD shuffling, DRL exploration, DP noise) draw from an explicitly seeded
// `Rng` so every experiment is reproducible from its seed. The generator is
// xoshiro256**, which is fast, high-quality, and trivially splittable.

#ifndef FEDMIGR_UTIL_RNG_H_
#define FEDMIGR_UTIL_RNG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/serial.h"

namespace fedmigr::util {

// xoshiro256** engine with convenience distributions. Copyable: copying
// forks the stream (both copies produce the same subsequent values).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 random bits.
  uint64_t Next();

  // Derives an independent generator; deterministic in (state, call order).
  Rng Split();

  // Uniform in [0, 1).
  double Uniform();
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [0, n). Requires n > 0.
  int UniformInt(int n);
  // Standard normal via Box-Muller.
  double Normal();
  // Normal with the given mean / standard deviation.
  double Normal(double mean, double stddev);
  // Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  // Samples an index according to (unnormalized, non-negative) weights.
  // Requires at least one strictly positive weight.
  int Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (int i = static_cast<int>(items.size()) - 1; i > 0; --i) {
      const int j = UniformInt(i + 1);
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  // k distinct indices drawn uniformly from [0, n). Requires 0 <= k <= n.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  // Snapshot layout (util/serial.h): the four words, then the spare.
  // Loading it resumes the stream bit-identically, including the next
  // Normal() draw, which the run-snapshot subsystem relies on.
  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Io(std::span<uint64_t>(state_));
    ar.Io(has_cached_normal_);
    ar.Io(cached_normal_);
    return ar.status();
  }

 private:
  uint64_t state_[4];
  // Box-Muller produces pairs; cache the spare value.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fedmigr::util

#endif  // FEDMIGR_UTIL_RNG_H_
