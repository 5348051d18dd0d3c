// Property-style gradient sweeps: finite-difference checks across a grid
// of layer shapes and compositions, exercising interactions (conv into
// dense, pooling between convs, activations in every position) that the
// per-layer tests don't cover.

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/layers.h"
#include "nn/sequential.h"
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

// ---- Dense sweep over (in, out, batch). --------------------------------

class DenseGradSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DenseGradSweep, FiniteDifferences) {
  const auto [in, out, batch] = GetParam();
  util::Rng rng(static_cast<uint64_t>(in * 100 + out * 10 + batch));
  Sequential model;
  model.Add(std::make_unique<Dense>(in, out, &rng));
  const auto r = CheckGradients(
      &model, RandomInput({batch, in}, static_cast<uint64_t>(in + out)),
      &rng);
  EXPECT_LT(r.max_input_error, 1e-2);
  EXPECT_LT(r.max_param_error, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseGradSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                      std::make_tuple(7, 1, 2), std::make_tuple(5, 5, 4),
                      std::make_tuple(9, 3, 1)));

// ---- Conv sweep over (cin, cout, kernel, pad). -------------------------

class ConvGradSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvGradSweep, FiniteDifferences) {
  const auto [cin, cout, ksize, pad] = GetParam();
  util::Rng rng(static_cast<uint64_t>(cin * 37 + cout * 7 + ksize));
  Sequential model;
  model.Add(std::make_unique<Conv2D>(cin, cout, ksize, pad, &rng));
  const auto r = CheckGradients(
      &model, RandomInput({1, cin, 4, 4}, static_cast<uint64_t>(ksize)),
      &rng);
  EXPECT_LT(r.max_input_error, 2e-2);
  EXPECT_LT(r.max_param_error, 2e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradSweep,
    ::testing::Values(std::make_tuple(1, 1, 1, 0),
                      std::make_tuple(1, 2, 3, 1),
                      std::make_tuple(2, 1, 3, 0),
                      std::make_tuple(3, 3, 3, 1),
                      std::make_tuple(2, 2, 1, 0)));

// ---- Composed stacks. ---------------------------------------------------

TEST(ComposedGradCheck, ConvReluPoolDense) {
  util::Rng rng(71);
  Sequential model;
  model.Add(std::make_unique<Conv2D>(1, 2, 3, 1, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<MaxPool2x2>());
  model.Add(std::make_unique<Flatten>());
  model.Add(std::make_unique<Dense>(8, 3, &rng));
  const auto r = CheckGradients(&model, RandomInput({2, 1, 4, 4}, 72), &rng);
  EXPECT_LT(r.max_input_error, 2e-2);
  EXPECT_LT(r.max_param_error, 2e-2);
}

TEST(ComposedGradCheck, DoubleConvStack) {
  util::Rng rng(73);
  Sequential model;
  model.Add(std::make_unique<Conv2D>(2, 3, 3, 1, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<Conv2D>(3, 2, 3, 1, &rng));
  const auto r = CheckGradients(&model, RandomInput({1, 2, 4, 4}, 74), &rng);
  EXPECT_LT(r.max_input_error, 2e-2);
  EXPECT_LT(r.max_param_error, 2e-2);
}

TEST(ComposedGradCheck, ResidualInsideStack) {
  util::Rng rng(77);
  Sequential model;
  model.Add(std::make_unique<Dense>(6, 8, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<ResidualDense>(8, 5, &rng));
  model.Add(std::make_unique<Dense>(8, 2, &rng));
  const auto r = CheckGradients(&model, RandomInput({2, 6}, 78), &rng);
  EXPECT_LT(r.max_input_error, 2e-2);
  EXPECT_LT(r.max_param_error, 2e-2);
}

}  // namespace
}  // namespace fedmigr::nn
