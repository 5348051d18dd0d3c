#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/logging.h"

namespace fedmigr::util {

namespace {

// SplitMix64, used to expand the seed into the xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

Rng Rng::Split() { return Rng(Next()); }

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int Rng::UniformInt(int n) {
  FEDMIGR_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t bound = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  uint64_t value = Next();
  while (value >= limit) value = Next();
  return static_cast<int>(value % bound);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::Categorical(const std::vector<double>& weights) {
  FEDMIGR_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FEDMIGR_CHECK_GE(w, 0.0);
    total += w;
  }
  FEDMIGR_CHECK_GT(total, 0.0);
  double target = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  FEDMIGR_CHECK_GE(k, 0);
  FEDMIGR_CHECK_LE(k, n);
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: the first k slots are the sample.
  for (int i = 0; i < k; ++i) {
    const int j = i + UniformInt(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace fedmigr::util
