#include "util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/running_stats.h"

namespace fedmigr::util {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(3.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 3.5);
  EXPECT_EQ(stats.max(), 3.5);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, NegativeValues) {
  RunningStats stats;
  for (double x : {-1.0, -2.0, -3.0}) stats.Add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), -2.0);
  EXPECT_EQ(stats.min(), -3.0);
  EXPECT_EQ(stats.max(), -1.0);
}

TEST(MeanTest, BasicAndEmpty) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(PercentileTest, MedianOfOddList) {
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(PercentileTest, Extremes) {
  std::vector<double> values = {5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 9.0);
}

TEST(PercentileTest, Interpolates) {
  // Sorted: 1, 2, 3, 4. p=50 -> rank 1.5 -> 2.5.
  EXPECT_DOUBLE_EQ(Percentile({4.0, 3.0, 2.0, 1.0}, 50.0), 2.5);
}

TEST(SummarizeTest, EmptyIsAllZeros) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p90, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(SummarizeTest, MatchesComponentHelpers) {
  const std::vector<double> values = {5.0, 1.0, 9.0, 3.0, 7.0};
  const Summary s = Summarize(values);
  EXPECT_EQ(s.count, values.size());
  EXPECT_DOUBLE_EQ(s.mean, Mean(values));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.p50, Percentile(values, 50.0));
  EXPECT_DOUBLE_EQ(s.p90, Percentile(values, 90.0));
  EXPECT_DOUBLE_EQ(s.p99, Percentile(values, 99.0));
}

TEST(SummarizeTest, SingleValue) {
  const Summary s = Summarize({4.25});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.25);
  EXPECT_DOUBLE_EQ(s.min, 4.25);
  EXPECT_DOUBLE_EQ(s.max, 4.25);
  EXPECT_DOUBLE_EQ(s.p50, 4.25);
  EXPECT_DOUBLE_EQ(s.p99, 4.25);
}

}  // namespace
}  // namespace fedmigr::util
