#include "nn/loss.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fedmigr::nn {
namespace {

TEST(SoftmaxCrossEntropyTest, UniformLogits) {
  Tensor logits({1, 4});  // all zeros -> uniform softmax
  const LossResult result = SoftmaxCrossEntropy(logits, {2});
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropyTest, ConfidentCorrectPredictionLowLoss) {
  Tensor logits({1, 3}, {10.0f, 0.0f, 0.0f});
  const LossResult result = SoftmaxCrossEntropy(logits, {0});
  EXPECT_LT(result.loss, 1e-3);
}

TEST(SoftmaxCrossEntropyTest, ConfidentWrongPredictionHighLoss) {
  Tensor logits({1, 3}, {10.0f, 0.0f, 0.0f});
  const LossResult result = SoftmaxCrossEntropy(logits, {1});
  EXPECT_GT(result.loss, 5.0);
}

TEST(SoftmaxCrossEntropyTest, GradientIsSoftmaxMinusOneHot) {
  Tensor logits({1, 2});  // softmax = (0.5, 0.5)
  const LossResult result = SoftmaxCrossEntropy(logits, {0});
  EXPECT_NEAR(result.grad_logits.At(0, 0), -0.5f, 1e-6f);
  EXPECT_NEAR(result.grad_logits.At(0, 1), 0.5f, 1e-6f);
}

TEST(SoftmaxCrossEntropyTest, GradientScaledByBatch) {
  Tensor logits({2, 2});
  const LossResult result = SoftmaxCrossEntropy(logits, {0, 1});
  // Each row's gradient is divided by batch size 2.
  EXPECT_NEAR(result.grad_logits.At(0, 0), -0.25f, 1e-6f);
}

TEST(SoftmaxCrossEntropyTest, GradientMatchesFiniteDifference) {
  Tensor logits({2, 3}, {0.5f, -1.0f, 2.0f, 0.0f, 1.0f, -0.5f});
  const std::vector<int> labels = {2, 0};
  const LossResult base = SoftmaxCrossEntropy(logits, labels);
  const double eps = 1e-3;
  for (int64_t i = 0; i < logits.size(); ++i) {
    Tensor perturbed = logits;
    perturbed[i] += static_cast<float>(eps);
    const double plus = SoftmaxCrossEntropy(perturbed, labels).loss;
    perturbed[i] -= static_cast<float>(2 * eps);
    const double minus = SoftmaxCrossEntropy(perturbed, labels).loss;
    const double numeric = (plus - minus) / (2 * eps);
    EXPECT_NEAR(numeric, base.grad_logits[i], 1e-3);
  }
}

TEST(SoftmaxCrossEntropyTest, NumericallyStableForLargeLogits) {
  Tensor logits({1, 2}, {1000.0f, 999.0f});
  const LossResult result = SoftmaxCrossEntropy(logits, {0});
  EXPECT_TRUE(std::isfinite(result.loss));
  EXPECT_LT(result.loss, 1.0);
}

TEST(AccuracyTest, PerfectAndZero) {
  Tensor logits({2, 3}, {5, 0, 0, 0, 0, 5});
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 2}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, {1, 1}), 0.0);
}

TEST(AccuracyTest, Partial) {
  Tensor logits({4, 2}, {1, 0, 0, 1, 1, 0, 0, 1});
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 1, 1}), 0.75);
}

}  // namespace
}  // namespace fedmigr::nn
