#include "net/topology.h"

#include <gtest/gtest.h>

#include "net/sim_topologies.h"

namespace fedmigr::net {
namespace {

TEST(EvenLanAssignmentTest, Balanced) {
  EXPECT_EQ(EvenLanAssignment(10, 3),
            (std::vector<int>{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}));
  EXPECT_EQ(EvenLanAssignment(4, 2), (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(EvenLanAssignment(3, 3), (std::vector<int>{0, 1, 2}));
}

TEST(TopologyTest, LanMembership) {
  const Topology t = MakeC10SimTopology();
  EXPECT_EQ(t.num_clients(), 10);
  EXPECT_EQ(t.num_lans(), 3);
  EXPECT_TRUE(t.SameLan(0, 3));
  EXPECT_FALSE(t.SameLan(3, 4));
  EXPECT_EQ(t.lan_of(9), 2);
}

TEST(TopologyTest, C100SimTopology) {
  const Topology t = MakeC100SimTopology();
  EXPECT_EQ(t.num_clients(), 20);
  EXPECT_EQ(t.num_lans(), 5);
}

TEST(TopologyTest, BandwidthTiers) {
  const Topology t = MakeC10SimTopology();
  const double intra = t.BandwidthMbps(0, 1);   // same LAN
  const double cross = t.BandwidthMbps(0, 5);   // cross LAN
  const double wan = t.BandwidthMbps(0, kServerId);
  EXPECT_GT(intra, cross);
  EXPECT_GT(cross, wan);
}

TEST(TopologyTest, TransferTimeScalesWithBytes) {
  const Topology t = MakeC10SimTopology();
  const double small = t.TransferSeconds(0, 1, 1000);
  const double large = t.TransferSeconds(0, 1, 1000000);
  EXPECT_GT(large, small);
  // Latency floor: even 0 bytes cost the fixed latency.
  EXPECT_GE(t.TransferSeconds(0, 1, 0), t.config().link_latency_s);
}

TEST(TopologyTest, TransferTimeKnownValue) {
  TopologyConfig config;
  config.lan_of = {0, 0};
  config.intra_lan_mbps = 8.0;  // 1 MB/s
  config.link_latency_s = 0.0;
  const Topology t(std::move(config));
  EXPECT_NEAR(t.TransferSeconds(0, 1, 1000000), 1.0, 1e-9);
}

TEST(TopologyTest, WanSlowerThanC2C) {
  const Topology t = MakeC10SimTopology();
  const int64_t bytes = 1 << 20;
  EXPECT_GT(t.TransferSeconds(0, kServerId, bytes),
            t.TransferSeconds(0, 5, bytes));
}

TEST(TopologyTest, LinkMultiplierSlowsLink) {
  Topology t = MakeC10SimTopology();
  const double before = t.TransferSeconds(0, 5, 1 << 20);
  t.SetLinkMultiplier(0, 5, 0.25);
  EXPECT_NEAR(t.BandwidthMbps(0, 5),
              0.25 * t.config().cross_lan_mbps, 1e-9);
  EXPECT_GT(t.TransferSeconds(0, 5, 1 << 20), before);
  // Symmetric.
  EXPECT_EQ(t.LinkMultiplier(5, 0), 0.25);
}

TEST(TopologyTest, MultiplierDoesNotAffectOtherLinks) {
  Topology t = MakeC10SimTopology();
  t.SetLinkMultiplier(0, 5, 0.1);
  EXPECT_EQ(t.LinkMultiplier(0, 6), 1.0);
  EXPECT_NEAR(t.BandwidthMbps(1, 5), t.config().cross_lan_mbps, 1e-9);
}

TEST(TopologyTest, DefaultConstructedIsSingleClient) {
  const Topology t;
  EXPECT_EQ(t.num_clients(), 1);
  EXPECT_EQ(t.num_lans(), 1);
}

}  // namespace
}  // namespace fedmigr::net
