#include "nn/init.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/tensor_helpers.h"
#include "util/running_stats.h"
#include "util/stats.h"

namespace fedmigr::nn {
namespace {

TEST(InitTest, HeNormalStatistics) {
  util::Rng rng(2);
  Tensor weights({128, 64});
  const int fan_in = 64;
  HeNormal(&weights, fan_in, &rng);
  util::RunningStats stats;
  for (int64_t i = 0; i < weights.size(); ++i) stats.Add(weights[i]);
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.stddev(), std::sqrt(2.0 / fan_in), 0.02);
}

TEST(InitTest, DifferentRngStatesDiffer) {
  util::Rng a(3), b(4);
  Tensor wa({8, 8}), wb({8, 8});
  HeNormal(&wa, 8, &a);
  HeNormal(&wb, 8, &b);
  EXPECT_GT(MaxAbsDiff(wa, wb), 0.0f);
}

TEST(InitTest, SameRngStateReproduces) {
  Tensor wa({8, 8}), wb({8, 8});
  {
    util::Rng rng(5);
    HeNormal(&wa, 8, &rng);
  }
  {
    util::Rng rng(5);
    HeNormal(&wb, 8, &rng);
  }
  EXPECT_EQ(MaxAbsDiff(wa, wb), 0.0f);
}

}  // namespace
}  // namespace fedmigr::nn
