#include "nn/sequential.h"

#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/tensor_helpers.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

Sequential TwoLayerMlp(uint64_t seed) {
  util::Rng rng(seed);
  Sequential model;
  model.Add(std::make_unique<Dense>(4, 8, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<Dense>(8, 3, &rng));
  return model;
}

TEST(SequentialTest, ForwardShape) {
  Sequential model = TwoLayerMlp(1);
  Tensor in({5, 4});
  EXPECT_EQ(model.Forward(in).shape(), (Shape{5, 3}));
}

TEST(SequentialTest, NumParamsAndByteSize) {
  Sequential model = TwoLayerMlp(2);
  // (4*8 + 8) + (8*3 + 3) = 67.
  EXPECT_EQ(model.NumParams(), 67);
  EXPECT_EQ(model.ByteSize(), 268);
}

TEST(SequentialTest, CopyIsDeep) {
  Sequential a = TwoLayerMlp(3);
  Sequential b = a;
  (*a.Params()[0])[0] += 5.0f;
  EXPECT_NE((*a.Params()[0])[0], (*b.Params()[0])[0]);
}

TEST(SequentialTest, CopyParamsFrom) {
  Sequential a = TwoLayerMlp(4);
  Sequential b = TwoLayerMlp(5);
  EXPECT_GT(ParamDistance(a, b), 0.0);
  b.CopyParamsFrom(a);
  EXPECT_EQ(ParamDistance(a, b), 0.0);
}

TEST(SequentialTest, LerpParamsHalfway) {
  Sequential a = TwoLayerMlp(6);
  Sequential b = TwoLayerMlp(7);
  Sequential mid = a;
  mid.LerpParamsFrom(b, 0.5f);
  const double da = ParamDistance(mid, a);
  const double db = ParamDistance(mid, b);
  EXPECT_NEAR(da, db, 1e-4);
}

TEST(SequentialTest, LerpZeroAndOneAreEndpoints) {
  Sequential a = TwoLayerMlp(8);
  Sequential b = TwoLayerMlp(9);
  Sequential x = a;
  x.LerpParamsFrom(b, 0.0f);
  EXPECT_NEAR(ParamDistance(x, a), 0.0, 1e-5);
  x.LerpParamsFrom(b, 1.0f);
  EXPECT_NEAR(ParamDistance(x, b), 0.0, 1e-5);
}

TEST(SequentialTest, ZeroGradsClearsAll) {
  Sequential model = TwoLayerMlp(10);
  Tensor in({2, 4});
  in.Fill(1.0f);
  (void)model.Forward(in);
  Tensor grad({2, 3});
  grad.Fill(1.0f);
  (void)model.Backward(grad);
  double grad_norm = 0.0;
  for (Tensor* g : model.Grads()) grad_norm += g->Norm();
  EXPECT_GT(grad_norm, 0.0);
  model.ZeroGrads();
  grad_norm = 0.0;
  for (Tensor* g : model.Grads()) grad_norm += g->Norm();
  EXPECT_EQ(grad_norm, 0.0);
}

TEST(SequentialTest, GradientsAccumulateAcrossBackwards) {
  Sequential model = TwoLayerMlp(11);
  Tensor in({1, 4});
  in.Fill(0.5f);
  Tensor grad({1, 3});
  grad.Fill(1.0f);
  (void)model.Forward(in);
  (void)model.Backward(grad);
  const double norm_once = model.Grads()[0]->Norm();
  (void)model.Forward(in);
  (void)model.Backward(grad);
  const double norm_twice = model.Grads()[0]->Norm();
  EXPECT_NEAR(norm_twice, 2.0 * norm_once, 1e-4);
}

TEST(SequentialTest, ParamDistanceIsMetricLike) {
  Sequential a = TwoLayerMlp(12);
  Sequential b = TwoLayerMlp(13);
  EXPECT_EQ(ParamDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(ParamDistance(a, b),
                   ParamDistance(b, a));
}

// BackwardParams lets layer 0 skip its input gradient; the parameter
// gradients it leaves must be the bytes Backward leaves, for every zoo
// model and across accumulating steps.
class BackwardParamsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BackwardParamsTest, GradsMatchBackward) {
  util::Rng rng(21);
  Sequential model;
  Shape input_shape;
  if (GetParam() == "c10") {
    model = MakeC10Net(&rng);
    input_shape = {5, kImageChannels, kImageSize, kImageSize};
  } else if (GetParam() == "c100") {
    model = MakeC100Net(&rng);
    input_shape = {5, kImageChannels, kImageSize, kImageSize};
  } else if (GetParam() == "resmini") {
    model = MakeResMini(&rng);
    input_shape = {5, kResFeatureDim};
  } else {
    model = MakeMlp({6, 16, 16, 1}, &rng);
    input_shape = {7, 6};
  }
  Sequential twin = model;
  for (int step = 0; step < 2; ++step) {
    Tensor input(input_shape);
    for (int64_t i = 0; i < input.size(); ++i) {
      input[i] = static_cast<float>(rng.Normal());
    }
    const Tensor out = model.Forward(input, /*training=*/true);
    ASSERT_TRUE(out.SameShape(twin.Forward(input, /*training=*/true)));
    Tensor grad(out.shape());
    for (int64_t i = 0; i < grad.size(); ++i) {
      grad[i] = static_cast<float>(rng.Normal());
    }
    (void)model.Backward(grad);
    twin.BackwardParams(grad);
    const std::vector<Tensor*> want = model.Grads();
    const std::vector<Tensor*> got = twin.Grads();
    ASSERT_EQ(got.size(), want.size());
    for (size_t g = 0; g < want.size(); ++g) {
      ASSERT_TRUE(got[g]->SameShape(*want[g]));
      EXPECT_EQ(std::memcmp(got[g]->data(), want[g]->data(),
                            static_cast<size_t>(want[g]->size()) *
                                sizeof(float)),
                0)
          << "step " << step << " grad " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, BackwardParamsTest,
                         ::testing::Values("c10", "c100", "resmini", "mlp"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace fedmigr::nn
