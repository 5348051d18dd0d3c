#include "nn/ops.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "conv_reference.h"
#include "nn/tensor_helpers.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

TEST(MatMulTest, KnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.At(0, 0), 58.0f);
  EXPECT_EQ(c.At(0, 1), 64.0f);
  EXPECT_EQ(c.At(1, 0), 139.0f);
  EXPECT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityLeavesUnchanged) {
  Tensor eye({2, 2}, {1, 0, 0, 1});
  Tensor m({2, 2}, {3, 4, 5, 6});
  EXPECT_EQ(MaxAbsDiff(MatMul(eye, m), m), 0.0f);
}

TEST(MatMulTest, TransAMatchesExplicitTranspose) {
  util::Rng rng(1);
  Tensor a({4, 3});  // interpreted as A^T: K=4, M=3
  Tensor b({4, 5});
  for (int64_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(rng.Normal());
  for (int64_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(rng.Normal());
  // Explicit transpose of a -> [3, 4].
  Tensor at({3, 4});
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) at.At(j, i) = a.At(i, j);
  }
  EXPECT_LT(MaxAbsDiff(MatMulTransA(a, b), MatMul(at, b)), 1e-5f);
}

TEST(MatMulTest, TransBMatchesExplicitTranspose) {
  util::Rng rng(2);
  Tensor a({3, 4});
  Tensor b({5, 4});  // interpreted as B^T: N=5, K=4
  for (int64_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(rng.Normal());
  for (int64_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(rng.Normal());
  Tensor bt({4, 5});
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) bt.At(j, i) = b.At(i, j);
  }
  EXPECT_LT(MaxAbsDiff(MatMulTransB(a, b), MatMul(a, bt)), 1e-5f);
}

class ConvParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ConvParamTest, MatchesReferenceImplementation) {
  const auto [cin, cout, size, ksize, pad] = GetParam();
  util::Rng rng(static_cast<uint64_t>(cin * 100 + cout * 10 + pad));
  Tensor input({2, cin, size, size});
  Tensor kernel({cout, cin, ksize, ksize});
  Tensor bias({cout});
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(rng.Normal());
  }
  for (int64_t i = 0; i < kernel.size(); ++i) {
    kernel[i] = static_cast<float>(rng.Normal());
  }
  for (int64_t i = 0; i < bias.size(); ++i) {
    bias[i] = static_cast<float>(rng.Normal());
  }
  const Tensor fast = Conv2dForward(input, kernel, bias, pad);
  const Tensor ref = testing::ReferenceConv(input, kernel, bias, pad);
  EXPECT_LT(MaxAbsDiff(fast, ref), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParamTest,
    ::testing::Values(std::make_tuple(1, 1, 4, 3, 1),
                      std::make_tuple(3, 8, 8, 5, 2),
                      std::make_tuple(2, 4, 6, 3, 0),
                      std::make_tuple(4, 2, 5, 1, 0),
                      std::make_tuple(2, 3, 8, 5, 2)));

TEST(Conv2dTest, OutputShape) {
  Tensor input({1, 3, 8, 8});
  Tensor kernel({16, 3, 5, 5});
  Tensor bias({16});
  const Tensor out = Conv2dForward(input, kernel, bias, 2);
  EXPECT_EQ(out.shape(), (Shape{1, 16, 8, 8}));
}

TEST(Conv2dTest, BiasOnlyWhenKernelZero) {
  Tensor input({1, 1, 4, 4});
  input.Fill(3.0f);
  Tensor kernel({2, 1, 3, 3});  // zeros
  Tensor bias({2}, {1.5f, -2.0f});
  const Tensor out = Conv2dForward(input, kernel, bias, 1);
  EXPECT_EQ(out.At(0, 0, 2, 2), 1.5f);
  EXPECT_EQ(out.At(0, 1, 0, 0), -2.0f);
}

TEST(MaxPoolTest, SelectsMaxima) {
  Tensor input({1, 1, 2, 2}, {1, 4, 3, 2});
  Tensor argmax;
  const Tensor out = MaxPool2x2Forward(input, &argmax);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(out[0], 4.0f);
  EXPECT_EQ(argmax[0], 1.0f);  // flat index of the max
}

TEST(MaxPoolTest, BackwardRoutesGradientToArgmax) {
  Tensor input({1, 1, 2, 2}, {1, 4, 3, 2});
  Tensor argmax;
  (void)MaxPool2x2Forward(input, &argmax);
  Tensor grad_out({1, 1, 1, 1}, {2.5f});
  const Tensor grad_in = MaxPool2x2Backward(grad_out, argmax, input.shape());
  EXPECT_EQ(grad_in[0], 0.0f);
  EXPECT_EQ(grad_in[1], 2.5f);
  EXPECT_EQ(grad_in[2], 0.0f);
}

TEST(MaxPoolTest, MultiChannelShapes) {
  Tensor input({2, 3, 4, 4});
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i % 7);
  }
  Tensor argmax;
  const Tensor out = MaxPool2x2Forward(input, &argmax);
  EXPECT_EQ(out.shape(), (Shape{2, 3, 2, 2}));
  EXPECT_TRUE(argmax.SameShape(out));
}

// The 2x2 window keeps its first maximum under a strict `>` scan in
// (dy, dx) order: a tie keeps the earlier element, a NaN wins only in the
// first position (no comparison against it is true), and -0/+0 tie. Checked
// exhaustively over six values, output and argmax bytes, across planes.
TEST(MaxPoolTest, TiesNaNAndSignedZerosKeepFirstStrictMaximum) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {nan, -inf, -1.0f, -0.0f, 0.0f, 1.0f};
  constexpr int kValues = 6;
  constexpr int kWindows = kValues * kValues * kValues * kValues;  // 1296
  // Each of two planes holds every window, in 2 window rows of 648, so the
  // argmax offsets cross rows and planes.
  const int h = 4, w = kWindows;
  Tensor input({1, 2, h, w});
  std::vector<float> want_out;
  std::vector<float> want_arg;
  for (int win = 0; win < 2 * kWindows; ++win) {
    int code = win % kWindows;
    float v[4];
    for (int j = 0; j < 4; ++j, code /= kValues) v[j] = values[code % kValues];
    const int plane = win / kWindows;
    const int wy = (win % kWindows) / (w / 2);
    const int wx = (win % kWindows) % (w / 2);
    const int64_t base = static_cast<int64_t>(plane) * h * w;
    const int64_t off[4] = {base + (2 * wy) * w + 2 * wx,
                            base + (2 * wy) * w + 2 * wx + 1,
                            base + (2 * wy + 1) * w + 2 * wx,
                            base + (2 * wy + 1) * w + 2 * wx + 1};
    int best = 0;
    for (int j = 0; j < 4; ++j) input[off[j]] = v[j];
    for (int j = 1; j < 4; ++j) {
      if (v[j] > v[best]) best = j;
    }
    want_out.push_back(v[best]);
    want_arg.push_back(static_cast<float>(off[best]));
  }
  Tensor argmax;
  const Tensor out = MaxPool2x2Forward(input, &argmax);
  ASSERT_EQ(out.shape(), (Shape{1, 2, 2, w / 2}));
  ASSERT_EQ(out.size(), static_cast<int64_t>(want_out.size()));
  // Output windows are row-major per plane, the order they were built in.
  EXPECT_EQ(std::memcmp(out.data(), want_out.data(),
                        want_out.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(argmax.data(), want_arg.data(),
                        want_arg.size() * sizeof(float)),
            0);
  // Spot checks of the rule itself.
  const Tensor ties({1, 1, 2, 8}, {-0.0f, 0.0f, 1.0f, 1.0f, 2.0f, nan, nan, 5.0f,
                                   0.0f, -0.0f, 1.0f, 1.0f, 3.0f, 2.0f, 6.0f, 7.0f});
  const Tensor got = MaxPool2x2Forward(ties, &argmax);
  EXPECT_TRUE(std::signbit(got[0]));  // -0 first, +0 ties: -0 kept
  EXPECT_EQ(argmax[0], 0.0f);
  EXPECT_EQ(got[1], 1.0f);  // four-way tie: the first
  EXPECT_EQ(argmax[1], 2.0f);
  EXPECT_EQ(got[2], 3.0f);  // NaN second: skipped
  EXPECT_EQ(argmax[2], 12.0f);
  EXPECT_TRUE(std::isnan(got[3]));  // NaN first: kept
  EXPECT_EQ(argmax[3], 6.0f);
}

// argmax holds flat input offsets as floats, exact only up to 2^24; a
// larger input must fail loudly rather than misroute gradients.
TEST(MaxPoolDeathTest, InputBeyondFloatExactOffsetsIsRejected) {
  EXPECT_DEATH(
      {
        const Tensor input({1, 1, 2, (1 << 23) + 2});  // 2^24 + 4 elements
        Tensor argmax;
        (void)MaxPool2x2Forward(input, &argmax);
      },
      "CHECK failed");
}

// MaxPool2x2Backward scatters into a tensor of `input_shape` at the
// forward's argmax offsets; any shape but the forward input's must fail
// loudly rather than write out of bounds.
TEST(MaxPoolDeathTest, BackwardRejectsMismatchedInputShape) {
  Tensor input({2, 3, 4, 6});
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>(i % 11);
  }
  Tensor argmax;
  const Tensor out = MaxPool2x2Forward(input, &argmax);
  const Tensor grad(out.shape());
  EXPECT_EQ(MaxPool2x2Backward(grad, argmax, input.shape()).shape(),
            input.shape());
  EXPECT_DEATH((void)MaxPool2x2Backward(grad, argmax, Shape{1, 3, 4, 6}),
               "CHECK failed");
  EXPECT_DEATH((void)MaxPool2x2Backward(grad, argmax, Shape{2, 3, 2, 6}),
               "CHECK failed");
  EXPECT_DEATH((void)MaxPool2x2Backward(grad, argmax, Shape{2, 3, 4, 7}),
               "CHECK failed");
  EXPECT_DEATH((void)MaxPool2x2Backward(grad, argmax, Shape{2, 3, 24}),
               "CHECK failed");
  EXPECT_DEATH((void)MaxPool2x2Backward(grad, argmax, Shape{144}),
               "CHECK failed");
}

// Conv2dBackward sizes its lowering from the input and walks grad_output
// with oh x ow taps; a gradient of any other shape must fail loudly rather
// than read past the scratch plane.
TEST(ConvDeathTest, BackwardRejectsMismatchedShapes) {
  const Tensor input({2, 3, 8, 8});
  const Tensor kernel({4, 3, 5, 5});
  const Tensor grad_ok({2, 4, 8, 8});
  Tensor gin, gker, gbias;
  // Spatially mismatched gradient (the case that used to read out of
  // bounds), wrong batch, wrong channel count, and a wrong rank.
  EXPECT_DEATH(Conv2dBackward(input, kernel, 2, Tensor({2, 4, 9, 9}), &gin,
                              &gker, &gbias),
               "CHECK failed");
  EXPECT_DEATH(Conv2dBackward(input, kernel, 1, grad_ok, &gin, &gker,
                              &gbias),
               "CHECK failed");
  EXPECT_DEATH(Conv2dBackward(input, kernel, 2, Tensor({3, 4, 8, 8}), &gin,
                              &gker, &gbias),
               "CHECK failed");
  EXPECT_DEATH(Conv2dBackward(input, kernel, 2, Tensor({2, 5, 8, 8}), &gin,
                              &gker, &gbias),
               "CHECK failed");
  EXPECT_DEATH(Conv2dBackward(input, Tensor({4, 2, 5, 5}), 2, grad_ok, &gin,
                              &gker, &gbias),
               "CHECK failed");
  EXPECT_DEATH(Conv2dBackward(Tensor({2, 3, 64}), kernel, 2, grad_ok, &gin,
                              &gker, &gbias),
               "CHECK failed");
  // The matching shape passes, with or without an input gradient.
  Conv2dBackward(input, kernel, 2, grad_ok, &gin, &gker, &gbias);
  Conv2dBackward(input, kernel, 2, grad_ok, nullptr, &gker, &gbias);
  EXPECT_EQ(gin.shape(), input.shape());
}

}  // namespace
}  // namespace fedmigr::nn
