// Reproducibility guarantees: identical configuration (including seed)
// must reproduce workloads and runs bit-for-bit, and changing the seed
// must actually change them. Every number in EXPERIMENTS.md rests on this.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "nn/tensor.h"
#include "nn/tensor_helpers.h"

namespace fedmigr::core {
namespace {

WorkloadConfig SmallConfig(uint64_t seed) {
  WorkloadConfig config;
  config.train_per_class_override = 12;
  config.seed = seed;
  return config;
}

TEST(DeterminismTest, WorkloadIsReproducible) {
  const Workload a = MakeWorkload(SmallConfig(5));
  const Workload b = MakeWorkload(SmallConfig(5));
  EXPECT_EQ(nn::MaxAbsDiff(a.data.train.features(), b.data.train.features()),
            0.0f);
  EXPECT_EQ(a.data.train.labels(), b.data.train.labels());
  EXPECT_EQ(a.partition, b.partition);
}

TEST(DeterminismTest, SeedChangesWorkload) {
  const Workload a = MakeWorkload(SmallConfig(5));
  const Workload b = MakeWorkload(SmallConfig(6));
  EXPECT_GT(nn::MaxAbsDiff(a.data.train.features(), b.data.train.features()),
            0.0f);
  EXPECT_NE(a.partition, b.partition);
}

TEST(DeterminismTest, RunIsReproducible) {
  const Workload w = MakeWorkload(SmallConfig(7));
  auto run = [&w]() {
    fl::SchemeSetup setup = fl::MakeRandMigr(2);
    setup.config.max_epochs = 4;
    setup.config.eval_every = 2;
    setup.config.seed = 99;
    return RunScheme(w, std::move(setup));
  };
  const fl::RunResult a = run();
  const fl::RunResult b = run();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].train_loss, b.history[i].train_loss);
    EXPECT_DOUBLE_EQ(a.history[i].test_accuracy,
                     b.history[i].test_accuracy);
  }
}

TEST(DeterminismTest, RunSeedChangesTrajectory) {
  const Workload w = MakeWorkload(SmallConfig(7));
  auto run = [&w](uint64_t seed) {
    fl::SchemeSetup setup = fl::MakeRandMigr(2);
    setup.config.max_epochs = 4;
    setup.config.eval_every = 0;
    setup.config.seed = seed;
    return RunScheme(w, std::move(setup));
  };
  const fl::RunResult a = run(1);
  const fl::RunResult b = run(2);
  bool any_difference = false;
  for (size_t i = 0; i < a.history.size(); ++i) {
    if (a.history[i].train_loss != b.history[i].train_loss) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace fedmigr::core
