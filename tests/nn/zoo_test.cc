#include "nn/zoo.h"

#include <gtest/gtest.h>

#include "nn/tensor_helpers.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

TEST(ZooTest, C10NetShapes) {
  util::Rng rng(1);
  Sequential model = MakeC10Net(&rng);
  Tensor in({2, kImageChannels, kImageSize, kImageSize});
  const Tensor out = model.Forward(in, false);
  EXPECT_EQ(out.shape(), (Shape{2, 10}));
}

TEST(ZooTest, C100NetShapes) {
  util::Rng rng(2);
  Sequential model = MakeC100Net(&rng);
  Tensor in({3, kImageChannels, kImageSize, kImageSize});
  EXPECT_EQ(model.Forward(in, false).shape(), (Shape{3, 100}));
}

TEST(ZooTest, ResMiniShapes) {
  util::Rng rng(3);
  Sequential model = MakeResMini(&rng);
  Tensor in({4, kResFeatureDim});
  EXPECT_EQ(model.Forward(in, false).shape(), (Shape{4, 100}));
}

TEST(ZooTest, ResMiniCustomClasses) {
  util::Rng rng(4);
  Sequential model = MakeResMini(&rng, 7);
  Tensor in({1, kResFeatureDim});
  EXPECT_EQ(model.Forward(in, false).shape(), (Shape{1, 7}));
}

TEST(ZooTest, SizeOrderingMatchesPaperRoles) {
  util::Rng rng(5);
  // ResNet-152 is the largest model in the paper; ResMini keeps that role,
  // and C100-CNN is bigger than C10-CNN (extra FC layer + wider head).
  const int64_t c10 = MakeC10Net(&rng).NumParams();
  const int64_t c100 = MakeC100Net(&rng).NumParams();
  const int64_t res = MakeResMini(&rng).NumParams();
  EXPECT_LT(c10, c100);
  EXPECT_LT(c100, res);
}

TEST(ZooTest, MakeMlpDims) {
  util::Rng rng(6);
  Sequential mlp = MakeMlp({5, 8, 3}, &rng);
  Tensor in({2, 5});
  EXPECT_EQ(mlp.Forward(in, false).shape(), (Shape{2, 3}));
}

TEST(ZooTest, MakeModelByName) {
  util::Rng rng(8);
  EXPECT_EQ(MakeModelByName("c10", &rng).NumParams(),
            MakeC10Net(&rng).NumParams());
  EXPECT_EQ(MakeModelByName("c100", &rng).NumParams(),
            MakeC100Net(&rng).NumParams());
  EXPECT_EQ(MakeModelByName("resmini", &rng).NumParams(),
            MakeResMini(&rng).NumParams());
}

TEST(ZooTest, DifferentSeedsDifferentInit) {
  util::Rng rng_a(9), rng_b(10);
  Sequential a = MakeC10Net(&rng_a);
  Sequential b = MakeC10Net(&rng_b);
  EXPECT_GT(ParamDistance(a, b), 0.0);
}

}  // namespace
}  // namespace fedmigr::nn
