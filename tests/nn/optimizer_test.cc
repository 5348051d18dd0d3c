#include "nn/optimizer.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

// One-parameter quadratic: minimize (w - 3)^2 via a Dense(1,1) on input 1
// with squared-error target 3 and zeroed bias — checks optimizer mechanics
// without a training loop.
Sequential ScalarModel(float w0) {
  util::Rng rng(1);
  auto dense = std::make_unique<Dense>(1, 1, &rng);
  (*dense->Params()[0])[0] = w0;
  (*dense->Params()[1])[0] = 0.0f;
  Sequential model;
  model.Add(std::move(dense));
  return model;
}

float Weight(Sequential& model) { return (*model.Params()[0])[0]; }

// Squared L2 norm of the whole parameter vector.
double SquaredParamNorm(const Sequential& model) {
  double sum = 0.0;
  for (const Tensor* p : model.Params()) sum += p->Norm() * p->Norm();
  return sum;
}

void StepOnce(Sequential* model, Optimizer* opt) {
  Tensor in({1, 1}, {1.0f});
  model->ZeroGrads();
  const Tensor out = model->Forward(in);
  // d/dout of the squared error (out - 3)^2.
  model->Backward(Tensor({1, 1}, {2.0f * (out[0] - 3.0f)}));
  opt->Step(model);
}

TEST(SgdTest, SingleStepMatchesHandComputation) {
  Sequential model = ScalarModel(0.0f);
  Sgd sgd(0.1);
  StepOnce(&model, &sgd);
  // grad = 2*(w - 3) = -6 on both weight and bias paths; w' = 0 + 0.1*6.
  EXPECT_NEAR(Weight(model), 0.6f, 1e-5f);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Sequential model = ScalarModel(0.0f);
  Sgd sgd(0.1);
  for (int i = 0; i < 100; ++i) StepOnce(&model, &sgd);
  // Weight + bias together fit the target (w + b -> 3).
  Tensor in({1, 1}, {1.0f});
  EXPECT_NEAR(model.Forward(in)[0], 3.0f, 1e-3f);
}

TEST(SgdTest, MomentumAcceleratesFirstSteps) {
  Sequential plain_model = ScalarModel(0.0f);
  Sequential momentum_model = ScalarModel(0.0f);
  Sgd plain(0.01);
  Sgd with_momentum(0.01, 0.9);
  for (int i = 0; i < 10; ++i) {
    StepOnce(&plain_model, &plain);
    StepOnce(&momentum_model, &with_momentum);
  }
  EXPECT_GT(Weight(momentum_model), Weight(plain_model));
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  util::Rng rng(2);
  Sequential model;
  model.Add(std::make_unique<Dense>(3, 3, &rng));
  const double norm_before = SquaredParamNorm(model);
  Sgd sgd(0.1, 0.0, /*weight_decay=*/0.5);
  model.ZeroGrads();  // pure decay, no data gradient
  sgd.Step(&model);
  EXPECT_LT(SquaredParamNorm(model), norm_before);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Sequential model = ScalarModel(0.0f);
  Adam adam(0.1);
  for (int i = 0; i < 200; ++i) StepOnce(&model, &adam);
  Tensor in({1, 1}, {1.0f});
  EXPECT_NEAR(model.Forward(in)[0], 3.0f, 1e-2f);
}

TEST(AdamTest, FirstStepBoundedByLearningRate) {
  Sequential model = ScalarModel(0.0f);
  Adam adam(0.05);
  StepOnce(&model, &adam);
  // Adam's first update magnitude is ~lr regardless of gradient scale.
  EXPECT_NEAR(Weight(model), 0.05f, 0.01f);
}

TEST(AdamTest, HandlesZeroGradient) {
  Sequential model = ScalarModel(1.0f);
  Adam adam(0.1);
  model.ZeroGrads();
  adam.Step(&model);
  EXPECT_NEAR(Weight(model), 1.0f, 1e-6f);
}

TEST(OptimizerTest, SetLearningRate) {
  Sgd sgd(0.1);
  sgd.set_learning_rate(0.5);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.5);
}

}  // namespace
}  // namespace fedmigr::nn
