#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace fedmigr::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(7);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(10);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(
      rng.Categorical(weights))];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(14);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(15);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[static_cast<size_t>(i)] = i;
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, items);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(16);
  const std::vector<int> sample = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(17);
  const std::vector<int> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(18);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(19);
  Rng b = a.Split();
  // The split stream should not track the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

// An Rng's state travels in its snapshot layout (Rng::Visit).
std::vector<uint8_t> SavedState(const Rng& rng) {
  ByteWriter writer;
  Save(rng, &writer);
  return writer.bytes();
}

void RestoreState(const std::vector<uint8_t>& state, Rng* rng) {
  ByteReader reader(state);
  ASSERT_TRUE(Load(&reader, rng).ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(RngStateTest, RestoreReplaysIdenticalStream) {
  Rng rng(21);
  for (int i = 0; i < 17; ++i) rng.Next();
  const std::vector<uint8_t> state = SavedState(rng);
  std::vector<uint64_t> expected;
  for (int i = 0; i < 100; ++i) expected.push_back(rng.Next());
  RestoreState(state, &rng);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(rng.Next(), expected[static_cast<size_t>(i)]) << "draw " << i;
  }
}

TEST(RngStateTest, RestoreIntoDifferentInstance) {
  Rng source(22);
  for (int i = 0; i < 9; ++i) source.Uniform();
  Rng clone(999);
  RestoreState(SavedState(source), &clone);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(source.Next(), clone.Next());
  }
}

TEST(RngStateTest, CachedNormalSpareRoundTrips) {
  // Box-Muller produces pairs; after one Normal() the spare is cached.
  // A snapshot taken between the two halves must preserve it bit-exactly.
  Rng rng(23);
  (void)rng.Normal();
  Rng restored(0);
  RestoreState(SavedState(rng), &restored);
  for (int i = 0; i < 20; ++i) {
    const double a = rng.Normal();
    const double b = restored.Normal();
    ASSERT_EQ(a, b) << "normal draw " << i;
  }
}

TEST(RngStateTest, SplitStreamsRoundTripIndependently) {
  Rng parent(24);
  Rng child = parent.Split();
  const std::vector<uint8_t> parent_state = SavedState(parent);
  const std::vector<uint8_t> child_state = SavedState(child);
  std::vector<uint64_t> parent_draws, child_draws;
  for (int i = 0; i < 32; ++i) {
    parent_draws.push_back(parent.Next());
    child_draws.push_back(child.Next());
  }
  RestoreState(parent_state, &parent);
  RestoreState(child_state, &child);
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(parent.Next(), parent_draws[static_cast<size_t>(i)]);
    ASSERT_EQ(child.Next(), child_draws[static_cast<size_t>(i)]);
  }
}

TEST(RngStateTest, SerializedStateRoundTrips) {
  Rng rng(25);
  (void)rng.Normal();  // populate the cached spare
  for (int i = 0; i < 5; ++i) rng.Next();
  ByteWriter writer;
  Save(rng, &writer);
  Rng restored(0);
  ByteReader reader(writer.bytes());
  ASSERT_TRUE(Load(&reader, &restored).ok());
  EXPECT_TRUE(reader.AtEnd());
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(rng.Next(), restored.Next());
  }
  ASSERT_EQ(rng.Normal(), restored.Normal());
}

TEST(RngStateTest, TruncatedSerializedStateFails) {
  Rng rng(26);
  ByteWriter writer;
  Save(rng, &writer);
  for (size_t cut = 0; cut < writer.size(); ++cut) {
    Rng victim(3);
    ByteReader reader(writer.bytes().data(), cut);
    EXPECT_FALSE(Load(&reader, &victim).ok()) << "cut " << cut;
  }
}

// Property sweep: UniformInt is unbiased across a range of moduli.
class RngModuloTest : public ::testing::TestWithParam<int> {};

TEST_P(RngModuloTest, ApproximatelyUniform) {
  const int modulus = GetParam();
  Rng rng(static_cast<uint64_t>(modulus) * 31 + 1);
  std::vector<int> counts(static_cast<size_t>(modulus), 0);
  const int n = 4000 * modulus;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(rng.UniformInt(modulus))];
  }
  const double expected = static_cast<double>(n) / modulus;
  for (int c : counts) {
    EXPECT_NEAR(c / expected, 1.0, 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, RngModuloTest,
                         ::testing::Values(2, 3, 7, 10, 16, 33));

}  // namespace
}  // namespace fedmigr::util
