#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "dp/accountant.h"
#include "dp/gaussian.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "nn/tensor_helpers.h"
#include "util/rng.h"
#include "util/running_stats.h"
#include "util/stats.h"

namespace fedmigr::dp {
namespace {

TEST(DpConfigTest, EnabledSemantics) {
  DpConfig config;
  EXPECT_FALSE(config.enabled());
  config.epsilon = 100.0;
  EXPECT_TRUE(config.enabled());
}

TEST(GaussianSigmaTest, ScalesInverselyWithEpsilon) {
  DpConfig strict;
  strict.epsilon = 10.0;
  strict.clip_norm = 1.0;
  DpConfig loose = strict;
  loose.epsilon = 100.0;
  EXPECT_GT(GaussianSigma(strict), GaussianSigma(loose));
  EXPECT_NEAR(GaussianSigma(strict) / GaussianSigma(loose), 10.0, 1e-9);
}

TEST(GaussianSigmaTest, KnownValue) {
  DpConfig config;
  config.epsilon = 1.0;
  config.delta = 1e-5;
  config.clip_norm = 1.0;
  EXPECT_NEAR(GaussianSigma(config), std::sqrt(2.0 * std::log(1.25e5)),
              1e-9);
}

TEST(ClipL2Test, NoClippingBelowThreshold) {
  std::vector<float> v = {0.3f, 0.4f};  // norm 0.5
  EXPECT_DOUBLE_EQ(ClipL2(&v, 1.0), 1.0);
  EXPECT_FLOAT_EQ(v[0], 0.3f);
}

TEST(ClipL2Test, ClipsToThreshold) {
  std::vector<float> v = {3.0f, 4.0f};  // norm 5
  const double factor = ClipL2(&v, 1.0);
  EXPECT_NEAR(factor, 0.2, 1e-6);
  EXPECT_NEAR(std::hypot(v[0], v[1]), 1.0, 1e-5);
  // Direction preserved.
  EXPECT_NEAR(v[1] / v[0], 4.0 / 3.0, 1e-5);
}

TEST(AddGaussianNoiseTest, ZeroSigmaIsNoop) {
  util::Rng rng(1);
  std::vector<float> v = {1.0f, 2.0f};
  AddGaussianNoise(&v, 0.0, &rng);
  EXPECT_EQ(v[0], 1.0f);
}

TEST(AddGaussianNoiseTest, NoiseHasRequestedScale) {
  util::Rng rng(2);
  std::vector<float> v(20000, 0.0f);
  AddGaussianNoise(&v, 0.5, &rng);
  util::RunningStats stats;
  for (float x : v) stats.Add(x);
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 0.5, 0.02);
}

TEST(PrivatizeModelTest, DisabledLeavesModelUntouched) {
  util::Rng init(3), noise(4);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Dense>(4, 4, &init));
  const auto before = nn::FlattenParams(model);
  DpConfig config;  // disabled
  PrivatizeModel(config, &model, &noise);
  EXPECT_EQ(nn::FlattenParams(model), before);
}

TEST(PrivatizeModelTest, PerturbsAndBoundsNorm) {
  util::Rng init(5), noise(6);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Dense>(16, 16, &init));
  const auto before = nn::FlattenParams(model);
  DpConfig config;
  config.epsilon = 50.0;
  config.clip_norm = 1.0;
  PrivatizeModel(config, &model, &noise);
  const auto after = nn::FlattenParams(model);
  EXPECT_NE(before, after);
  // Norm is clip + noise: should be near clip_norm, not the original norm.
  double norm = 0.0;
  for (float x : after) norm += static_cast<double>(x) * x;
  norm = std::sqrt(norm);
  EXPECT_LT(norm, 3.0 * config.clip_norm);
}

TEST(PrivatizeModelTest, SmallerEpsilonMoreDistortion) {
  auto distortion = [](double epsilon) {
    util::Rng init(7), noise(8);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Dense>(16, 16, &init));
    nn::Sequential original = model;
    DpConfig config;
    config.epsilon = epsilon;
    config.clip_norm = 100.0;  // no clipping, isolate the noise
    PrivatizeModel(config, &model, &noise);
    return nn::ParamDistance(model, original);
  };
  EXPECT_GT(distortion(10.0), distortion(1000.0));
}

TEST(AccountantTest, TracksSpending) {
  PrivacyAccountant accountant(100.0, 1e-3);
  accountant.Spend(30.0, 1e-4);
  EXPECT_DOUBLE_EQ(accountant.epsilon_spent(), 30.0);
  EXPECT_FALSE(accountant.Exhausted());
  accountant.Spend(80.0, 1e-4);
  EXPECT_TRUE(accountant.Exhausted());
}

TEST(AccountantTest, DeltaExhaustion) {
  PrivacyAccountant accountant(1e9, 1e-5);
  accountant.Spend(0.0, 2e-5);
  EXPECT_TRUE(accountant.Exhausted());
}

TEST(AccountantTest, InfiniteBudget) {
  PrivacyAccountant accountant(0.0, 1.0);  // <= 0 means unlimited
  accountant.Spend(1e12, 0.0);
  EXPECT_FALSE(accountant.Exhausted());
}

TEST(AccountantTest, PerReleaseEpsilonSplitsEvenly) {
  EXPECT_DOUBLE_EQ(PrivacyAccountant::PerReleaseEpsilon(100.0, 50), 2.0);
  EXPECT_DOUBLE_EQ(PrivacyAccountant::PerReleaseEpsilon(0.0, 10), 0.0);
}

}  // namespace
}  // namespace fedmigr::dp
