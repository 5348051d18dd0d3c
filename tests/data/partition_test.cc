#include "data/partition.h"

#include <set>

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "data/distribution_oracles.h"
#include "data/synthetic.h"
#include "net/topology.h"
#include "util/rng.h"

namespace fedmigr::data {
namespace {

Dataset MakeC10Train() {
  return GenerateSynthetic(C10Spec()).train;
}

TEST(PartitionIidTest, ExactCoverAndBalance) {
  const Dataset d = MakeC10Train();
  util::Rng rng(1);
  const Partition parts = PartitionIid(d, 10, &rng);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
  for (const auto& part : parts) {
    EXPECT_EQ(static_cast<int>(part.size()), d.size() / 10);
  }
}

TEST(PartitionIidTest, ApproximatelyUniformLabels) {
  const Dataset d = MakeC10Train();
  util::Rng rng(2);
  const Partition parts = PartitionIid(d, 10, &rng);
  const auto population = PopulationDistribution(d);
  for (const auto& part : parts) {
    const auto dist = LabelDistribution(d, part);
    EXPECT_LT(EmdDistance(dist, population), 0.5);
  }
}

TEST(PartitionShardTest, OneClassPerClient) {
  const Dataset d = MakeC10Train();
  util::Rng rng(3);
  const Partition parts = PartitionByClassShards(d, 10, 1, &rng);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
  for (const auto& part : parts) {
    std::set<int> classes;
    for (int idx : part) classes.insert(d.label(idx));
    EXPECT_EQ(classes.size(), 1u);
  }
}

TEST(PartitionShardTest, MaximallySkewedDistributions) {
  const Dataset d = MakeC10Train();
  util::Rng rng(4);
  const Partition parts = PartitionByClassShards(d, 10, 1, &rng);
  const auto population = PopulationDistribution(d);
  for (const auto& part : parts) {
    const auto dist = LabelDistribution(d, part);
    // Singleton vs uniform over 10: EMD = 2 * (1 - 1/10) = 1.8.
    EXPECT_NEAR(EmdDistance(dist, population), 1.8, 1e-9);
  }
}

TEST(PartitionShardTest, FiveClassesPerClientOnC100) {
  const Dataset d = GenerateSynthetic(C100Spec()).train;
  util::Rng rng(5);
  const Partition parts = PartitionByClassShards(d, 20, 5, &rng);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
  for (const auto& part : parts) {
    std::set<int> classes;
    for (int idx : part) classes.insert(d.label(idx));
    EXPECT_EQ(classes.size(), 5u);
  }
}

TEST(PartitionLanShardTest, SameDistributionWithinLan) {
  const Dataset d = MakeC10Train();
  util::Rng rng(6);
  const std::vector<int> lan_of = {0, 0, 0, 0, 1, 1, 1, 2, 2, 2};
  const Partition parts = PartitionByLanShards(d, lan_of, &rng);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
  // Clients 0..3 (LAN 0) share a distribution; client 4 (LAN 1) differs.
  const auto d0 = LabelDistribution(d, parts[0]);
  const auto d1 = LabelDistribution(d, parts[1]);
  const auto d4 = LabelDistribution(d, parts[4]);
  EXPECT_LT(EmdDistance(d0, d1), 0.2);
  EXPECT_GT(EmdDistance(d0, d4), 1.5);
}

TEST(PartitionDominanceTest, IidSpecialCase) {
  const Dataset d = MakeC10Train();
  util::Rng rng(7);
  // p = 1/num_classes reproduces (approximately) uniform allocation.
  const Partition parts = PartitionDominance(d, 10, 0.1, &rng);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
  const auto population = PopulationDistribution(d);
  double max_emd = 0.0;
  for (const auto& part : parts) {
    max_emd = std::max(max_emd,
                       EmdDistance(LabelDistribution(d, part), population));
  }
  EXPECT_LT(max_emd, 0.6);
}

TEST(PartitionDominanceTest, SkewGrowsWithP) {
  const Dataset d = MakeC10Train();
  const auto population = PopulationDistribution(d);
  double previous = 0.0;
  for (double p : {0.2, 0.4, 0.6, 0.8}) {
    util::Rng rng(static_cast<uint64_t>(p * 100));
    const Partition parts = PartitionDominance(d, 10, p, &rng);
    EXPECT_TRUE(IsExactCover(parts, d.size()));
    double mean_emd = 0.0;
    for (const auto& part : parts) {
      mean_emd += EmdDistance(LabelDistribution(d, part), population);
    }
    mean_emd /= static_cast<double>(parts.size());
    EXPECT_GT(mean_emd, previous);
    previous = mean_emd;
  }
}

TEST(PartitionDominanceTest, DominantClientOwnsItsClassShare) {
  const Dataset d = MakeC10Train();
  util::Rng rng(8);
  const Partition parts = PartitionDominance(d, 10, 0.8, &rng);
  // Client k dominates class k; 80% of class k's samples live on client k.
  const auto counts = ClassCounts(d);
  for (int k = 0; k < 10; ++k) {
    int own = 0;
    for (int idx : parts[static_cast<size_t>(k)]) {
      if (d.label(idx) == k) ++own;
    }
    EXPECT_NEAR(static_cast<double>(own) / counts[static_cast<size_t>(k)],
                0.8, 0.05);
  }
}

TEST(PartitionClassLackTest, ZeroLackIsFullCoverage) {
  const Dataset d = MakeC10Train();
  util::Rng rng(9);
  const Partition parts = PartitionClassLack(d, 10, 0, &rng);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
  for (const auto& part : parts) {
    std::set<int> classes;
    for (int idx : part) classes.insert(d.label(idx));
    EXPECT_EQ(classes.size(), 10u);
  }
}

TEST(PartitionClassLackTest, EachClientLacksExactly) {
  const Dataset d = MakeC10Train();
  util::Rng rng(10);
  const int lack = 3;
  const Partition parts = PartitionClassLack(d, 10, lack, &rng);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
  for (const auto& part : parts) {
    std::set<int> classes;
    for (int idx : part) classes.insert(d.label(idx));
    EXPECT_EQ(static_cast<int>(classes.size()), 10 - lack);
  }
}

// Property sweep: every partitioner yields an exact cover for any client
// count.
struct CoverCase {
  int num_clients;
  int kind;  // 0=iid, 1=shard, 2=dominance, 3=classlack
};

class PartitionCoverTest : public ::testing::TestWithParam<CoverCase> {};

TEST_P(PartitionCoverTest, ExactCover) {
  const auto [num_clients, kind] = GetParam();
  const Dataset d = MakeC10Train();
  util::Rng rng(static_cast<uint64_t>(num_clients * 10 + kind));
  Partition parts;
  switch (kind) {
    case 0:
      parts = PartitionIid(d, num_clients, &rng);
      break;
    case 1:
      parts = PartitionByClassShards(d, num_clients, 1, &rng);
      break;
    case 2:
      parts = PartitionDominance(d, num_clients, 0.5, &rng);
      break;
    default:
      parts = PartitionClassLack(d, num_clients, 2, &rng);
      break;
  }
  EXPECT_EQ(static_cast<int>(parts.size()), num_clients);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionCoverTest,
    ::testing::Values(CoverCase{2, 0}, CoverCase{5, 0}, CoverCase{13, 0},
                      CoverCase{5, 1}, CoverCase{10, 1}, CoverCase{20, 1},
                      CoverCase{4, 2}, CoverCase{10, 2}, CoverCase{16, 2},
                      CoverCase{5, 3}, CoverCase{10, 3}, CoverCase{20, 3}));

TEST(PartitionClassLackTest, FewSamplesManyHoldersLeavesNobodyEmpty) {
  // 100 classes x 8 samples over 20 clients, lack = 40: every class has
  // more holders than samples, which starves fixed-order dealing. The
  // shuffled dealing must leave every client with data.
  const Dataset d = GenerateSynthetic([] {
    SyntheticSpec spec = C100Spec();
    spec.train_per_class = 8;
    return spec;
  }()).train;
  util::Rng rng(11);
  const Partition parts = PartitionClassLack(d, 20, 40, &rng);
  EXPECT_TRUE(IsExactCover(parts, d.size()));
  for (const auto& part : parts) {
    EXPECT_FALSE(part.empty());
  }
}

TEST(IsExactCoverTest, DetectsDuplicatesAndGaps) {
  EXPECT_TRUE(IsExactCover({{0, 1}, {2}}, 3));
  EXPECT_FALSE(IsExactCover({{0, 1}, {1, 2}}, 3));   // duplicate
  EXPECT_FALSE(IsExactCover({{0}, {2}}, 3));          // gap
  EXPECT_FALSE(IsExactCover({{0, 5}}, 3));            // out of range
}

}  // namespace
}  // namespace fedmigr::data
