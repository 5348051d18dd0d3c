#include "nn/layers.h"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/sequential.h"
#include "nn/tensor_helpers.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

using testing::CheckGradients;

Tensor RandomInput(Shape shape, uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

TEST(DenseTest, ForwardShapeAndBias) {
  util::Rng rng(1);
  Dense layer(3, 2, &rng);
  // Zero the weights so output = bias.
  layer.Params()[0]->Zero();
  (*layer.Params()[1])[0] = 1.0f;
  (*layer.Params()[1])[1] = -2.0f;
  const Tensor out = layer.Forward(RandomInput({4, 3}, 2), true);
  EXPECT_EQ(out.shape(), (Shape{4, 2}));
  EXPECT_EQ(out.At(0, 0), 1.0f);
  EXPECT_EQ(out.At(3, 1), -2.0f);
}

TEST(DenseTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(3);
  Sequential model;
  model.Add(std::make_unique<Dense>(4, 3, &rng));
  const auto result =
      CheckGradients(&model, RandomInput({2, 4}, 4), &rng);
  EXPECT_LT(result.max_input_error, 1e-2);
  EXPECT_LT(result.max_param_error, 1e-2);
}

TEST(Conv2DTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(5);
  Sequential model;
  model.Add(std::make_unique<Conv2D>(2, 3, 3, 1, &rng));
  const auto result =
      CheckGradients(&model, RandomInput({2, 2, 4, 4}, 6), &rng);
  EXPECT_LT(result.max_input_error, 1e-2);
  EXPECT_LT(result.max_param_error, 1e-2);
}

TEST(ReluTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor in({1, 4}, {-1, 0, 2, -3});
  const Tensor out = relu.Forward(in, true);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(ReluTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor in({1, 3}, {-1, 2, 3});
  (void)relu.Forward(in, true);
  Tensor grad({1, 3}, {5, 5, 5});
  const Tensor out = relu.Backward(grad);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 5.0f);
}

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// ReLU is `x < 0 ? 0 : x`: −0.0 and NaN are not < 0, so both pass through
// unchanged; only strictly negative inputs (−inf included) become +0.
TEST(ReluTest, ForwardKeepsNegativeZeroAndNaN) {
  ReLU relu;
  const Tensor in({1, 6}, {-0.0f, kNaN, -kInf, kInf, -1.0f, 2.0f});
  const Tensor out = relu.Forward(in, true);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_TRUE(std::signbit(out[0]));
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_FALSE(std::signbit(out[2]));
  EXPECT_EQ(out[3], kInf);
  EXPECT_EQ(out[4], 0.0f);
  EXPECT_FALSE(std::signbit(out[4]));
  EXPECT_EQ(out[5], 2.0f);
}

// The backward mask is `x <= 0`: it zeroes the gradient at −0.0 as well as
// +0 and negatives, and passes it where the input was NaN or +inf.
TEST(ReluTest, BackwardZeroesAtNonPositiveInputsOnly) {
  ReLU relu;
  const Tensor in({1, 7}, {-0.0f, 0.0f, -1.0f, -kInf, kNaN, kInf, 3.0f});
  (void)relu.Forward(in, true);
  const Tensor grad({1, 7}, {5, 5, 5, 5, 5, 5, 5});
  const Tensor out = relu.Backward(grad);
  const float want[7] = {0, 0, 0, 0, 5, 5, 5};
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i], want[i]) << "element " << i;
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten flatten;
  Tensor in = RandomInput({2, 3, 4, 4}, 13);
  const Tensor out = flatten.Forward(in, true);
  EXPECT_EQ(out.shape(), (Shape{2, 48}));
  const Tensor back = flatten.Backward(out);
  EXPECT_EQ(back.shape(), in.shape());
  EXPECT_EQ(MaxAbsDiff(back, in), 0.0f);
}

TEST(MaxPoolLayerTest, GradCheckThroughPool) {
  util::Rng rng(14);
  Sequential model;
  model.Add(std::make_unique<Conv2D>(1, 2, 3, 1, &rng));
  model.Add(std::make_unique<MaxPool2x2>());
  // Distinct values avoid ties at the pooling argmax (finite differences
  // are undefined at ties).
  const auto r = CheckGradients(&model, RandomInput({1, 1, 4, 4}, 15), &rng);
  EXPECT_LT(r.max_input_error, 2e-2);
  EXPECT_LT(r.max_param_error, 2e-2);
}

TEST(ResidualDenseTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(16);
  Sequential model;
  model.Add(std::make_unique<ResidualDense>(4, 6, &rng));
  const auto r = CheckGradients(&model, RandomInput({2, 4}, 17), &rng);
  EXPECT_LT(r.max_input_error, 2e-2);
  EXPECT_LT(r.max_param_error, 2e-2);
}

TEST(ResidualDenseTest, ZeroBranchIsRelu) {
  util::Rng rng(18);
  ResidualDense block(3, 5, &rng);
  for (Tensor* p : block.Params()) p->Zero();
  Tensor in({1, 3}, {1.0f, -2.0f, 0.5f});
  const Tensor out = block.Forward(in, true);
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], 0.0f);  // ReLU of the pass-through
  EXPECT_EQ(out[2], 0.5f);
}

// A 1-feature block with unit weights computes relu(x + relu(x)), one row
// per value, so non-finite inputs reach the output ReLU without mixing
// rows. The sum x + F(x) is −0.0 only when both terms are, and the Dense
// branch accumulates from +0, so −0.0 never reaches the output ReLU: an
// input of −0.0 sums to +0 and must come out as +0 with its gradient masked.
TEST(ResidualDenseTest, OutputReluHandlesZerosAndNonFinite) {
  util::Rng rng(19);
  ResidualDense block(1, 1, &rng);
  const std::vector<Tensor*> params = block.Params();  // W1, b1, W2, b2
  ASSERT_EQ(params.size(), 4u);
  (*params[0])[0] = 1.0f;
  (*params[1])[0] = 0.0f;
  (*params[2])[0] = 1.0f;
  (*params[3])[0] = 0.0f;

  const Tensor in({6, 1}, {-0.0f, 0.0f, -kInf, kInf, kNaN, -2.0f});
  const Tensor out = block.Forward(in, true);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_FALSE(std::signbit(out[0]));
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_FALSE(std::signbit(out[2]));
  EXPECT_EQ(out[3], kInf);
  EXPECT_TRUE(std::isnan(out[4]));
  EXPECT_EQ(out[5], 0.0f);

  // d/dx relu(x + relu(x)): 2 where both ReLUs pass (+inf, NaN), 0 where
  // the sum is <= 0.
  const Tensor grad({6, 1}, {1, 1, 1, 1, 1, 1});
  const Tensor dx = block.Backward(grad);
  const float want[6] = {0, 0, 0, 2, 2, 0};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(dx[i], want[i]) << "row " << i;
}

TEST(CloneTest, ClonesAreIndependentCopies) {
  util::Rng rng(19);
  Dense layer(2, 2, &rng);
  auto clone = layer.Clone();
  // Same parameters right after cloning.
  EXPECT_EQ(MaxAbsDiff(*layer.Params()[0], *clone->Params()[0]), 0.0f);
  // Mutating the original does not affect the clone.
  (*layer.Params()[0])[0] += 1.0f;
  EXPECT_EQ(MaxAbsDiff(*layer.Params()[0], *clone->Params()[0]), 1.0f);
}

TEST(CloneTest, AllLayerTypesClone) {
  util::Rng rng(20);
  Sequential model;
  model.Add(std::make_unique<Conv2D>(1, 2, 3, 1, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<MaxPool2x2>());
  model.Add(std::make_unique<Flatten>());
  model.Add(std::make_unique<Dense>(8, 4, &rng));
  Sequential copy = model;  // copy = layer-wise Clone
  const Tensor in = RandomInput({1, 1, 4, 4}, 21);
  EXPECT_LT(MaxAbsDiff(model.Forward(in, false), copy.Forward(in, false)),
            1e-6f);
}

}  // namespace
}  // namespace fedmigr::nn
