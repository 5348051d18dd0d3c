#include "net/traffic.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace fedmigr::net {
namespace {

TEST(TrafficTest, EmptyAccountant) {
  TrafficAccountant traffic;
  EXPECT_EQ(traffic.total_bytes(), 0);
  EXPECT_EQ(traffic.num_transfers(), 0);
  EXPECT_EQ(traffic.LinkCount(0, 1), 0);
}

TEST(TrafficTest, SplitsC2sAndC2c) {
  TrafficAccountant traffic;
  traffic.Record(0, kServerId, 100);
  traffic.Record(kServerId, 1, 200);
  traffic.Record(0, 1, 50);
  EXPECT_EQ(traffic.c2s_bytes(), 300);
  EXPECT_EQ(traffic.c2c_bytes(), 50);
  EXPECT_EQ(traffic.total_bytes(), 350);
  EXPECT_EQ(traffic.num_transfers(), 3);
}

TEST(TrafficTest, GbConversion) {
  TrafficAccountant traffic;
  traffic.Record(0, 1, 2500000000LL);
  EXPECT_DOUBLE_EQ(traffic.c2c_gb(), 2.5);
  EXPECT_DOUBLE_EQ(traffic.c2s_gb(), 0.0);
}

TEST(TrafficTest, LinkCountsAreUndirected) {
  TrafficAccountant traffic;
  traffic.Record(2, 7, 10);
  traffic.Record(7, 2, 30);
  EXPECT_EQ(traffic.LinkCount(2, 7), 2);
  EXPECT_EQ(traffic.LinkCount(7, 2), 2);
}

TEST(TrafficTest, ServerLinksTrackedPerClient) {
  TrafficAccountant traffic;
  traffic.Record(0, kServerId, 10);
  traffic.Record(1, kServerId, 20);
  EXPECT_EQ(traffic.LinkCount(0, kServerId), 1);
  EXPECT_EQ(traffic.LinkCount(1, kServerId), 1);
}

TEST(TrafficTest, ZeroByteTransferCounts) {
  TrafficAccountant traffic;
  traffic.Record(0, 1, 0);
  EXPECT_EQ(traffic.num_transfers(), 1);
  EXPECT_EQ(traffic.total_bytes(), 0);
}

}  // namespace
}  // namespace fedmigr::net
