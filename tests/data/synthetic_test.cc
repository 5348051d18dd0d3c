#include "data/synthetic.h"

#include <gtest/gtest.h>

#include "data/distribution_oracles.h"
#include "nn/tensor_helpers.h"
#include "nn/zoo.h"

namespace fedmigr::data {
namespace {

TEST(SyntheticTest, C10SpecShapes) {
  const TrainTest tt = GenerateSynthetic(C10Spec());
  EXPECT_EQ(tt.train.num_classes(), 10);
  EXPECT_EQ(tt.train.size(), 10 * C10Spec().train_per_class);
  EXPECT_EQ(tt.test.size(), 10 * C10Spec().test_per_class);
  EXPECT_EQ(tt.train.sample_shape(),
            (nn::Shape{nn::kImageChannels, nn::kImageSize, nn::kImageSize}));
}

TEST(SyntheticTest, ImageNetSpecIsFlat) {
  const TrainTest tt = GenerateSynthetic(ImageNet100Spec());
  EXPECT_EQ(tt.train.sample_shape(), (nn::Shape{nn::kResFeatureDim}));
  EXPECT_EQ(tt.train.num_classes(), 100);
}

TEST(SyntheticTest, BalancedClasses) {
  const TrainTest tt = GenerateSynthetic(C10Spec());
  const auto counts = ClassCounts(tt.train);
  for (int c : counts) EXPECT_EQ(c, C10Spec().train_per_class);
}

TEST(SyntheticTest, DeterministicForSameSeed) {
  SyntheticSpec spec = C10Spec();
  const TrainTest a = GenerateSynthetic(spec);
  const TrainTest b = GenerateSynthetic(spec);
  EXPECT_EQ(nn::MaxAbsDiff(a.train.features(), b.train.features()), 0.0f);
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticSpec spec = C10Spec();
  const TrainTest a = GenerateSynthetic(spec);
  spec.seed += 1;
  const TrainTest b = GenerateSynthetic(spec);
  EXPECT_GT(nn::MaxAbsDiff(a.train.features(), b.train.features()), 0.0f);
}

TEST(SyntheticTest, TrainAndTestShareClassStructure) {
  // Nearest-prototype structure: a test sample's class mean (from train
  // data) should be closer than other class means most of the time. We
  // check the weaker property that per-class means of train and test are
  // close relative to noise.
  SyntheticSpec spec = C10Spec();
  spec.noise = 0.5;
  const TrainTest tt = GenerateSynthetic(spec);
  const int64_t dim = tt.train.sample_size();
  auto class_mean = [&](const Dataset& d, int cls) {
    std::vector<double> mean(static_cast<size_t>(dim), 0.0);
    int n = 0;
    for (int i = 0; i < d.size(); ++i) {
      if (d.label(i) != cls) continue;
      ++n;
      for (int64_t j = 0; j < dim; ++j) {
        mean[static_cast<size_t>(j)] += d.features()[i * dim + j];
      }
    }
    for (auto& m : mean) m /= n;
    return mean;
  };
  for (int cls = 0; cls < 3; ++cls) {
    const auto train_mean = class_mean(tt.train, cls);
    const auto test_mean = class_mean(tt.test, cls);
    double dist = 0.0, norm = 0.0;
    for (int64_t j = 0; j < dim; ++j) {
      const double d = train_mean[static_cast<size_t>(j)] -
                       test_mean[static_cast<size_t>(j)];
      dist += d * d;
      norm += train_mean[static_cast<size_t>(j)] *
              train_mean[static_cast<size_t>(j)];
    }
    EXPECT_LT(dist, norm);  // same prototypes, different noise draws
  }
}

TEST(SyntheticTest, DifficultyOrdering) {
  // C100 has 10x classes with less data per class than C10 — documented
  // expectation that specs preserve the paper's difficulty ordering.
  EXPECT_GT(C100Spec().num_classes, C10Spec().num_classes);
  EXPECT_LT(C100Spec().train_per_class, C10Spec().train_per_class);
}

}  // namespace
}  // namespace fedmigr::data
