#include "core/fedmigr.h"

#include <gtest/gtest.h>

#include "net/sim_topologies.h"

namespace fedmigr::core {
namespace {

FedMigrOptions FastOptions() {
  FedMigrOptions options;
  options.pretrain.episodes = 2;
  options.cache_agent = false;
  return options;
}

TEST(FedMigrTest, SchemeAssembly) {
  const net::Topology topology = net::MakeC10SimTopology();
  const fl::SchemeSetup setup = MakeFedMigr(topology, 10, FastOptions());
  EXPECT_EQ(setup.config.scheme_name, "fedmigr");
  EXPECT_EQ(setup.config.agg_period, 50);
  EXPECT_EQ(setup.policy->name(), "fedmigr-drl");
}

TEST(FedMigrTest, AggPeriodPropagates) {
  const net::Topology topology = net::MakeC10SimTopology();
  FedMigrOptions options = FastOptions();
  options.agg_period = 7;
  const fl::SchemeSetup setup = MakeFedMigr(topology, 10, options);
  EXPECT_EQ(setup.config.agg_period, 7);
}

TEST(FedMigrTest, AgentCacheReuses) {
  ClearAgentCache();
  const net::Topology topology = net::MakeC10SimTopology();
  FedMigrOptions options;
  options.pretrain.episodes = 2;
  options.cache_agent = true;
  const auto a = GetOrTrainAgent(topology, 10, options);
  const auto b = GetOrTrainAgent(topology, 10, options);
  EXPECT_EQ(a.get(), b.get());
  ClearAgentCache();
}

TEST(FedMigrTest, CacheKeyedByShape) {
  ClearAgentCache();
  FedMigrOptions options;
  options.pretrain.episodes = 2;
  options.cache_agent = true;
  const auto a = GetOrTrainAgent(net::MakeC10SimTopology(), 10, options);
  const auto b = GetOrTrainAgent(net::MakeC100SimTopology(), 100, options);
  EXPECT_NE(a.get(), b.get());
  ClearAgentCache();
}

TEST(FedMigrTest, NoCacheMakesFreshAgents) {
  const net::Topology topology = net::MakeC10SimTopology();
  const FedMigrOptions options = FastOptions();
  const auto a = GetOrTrainAgent(topology, 10, options);
  const auto b = GetOrTrainAgent(topology, 10, options);
  EXPECT_NE(a.get(), b.get());
}

}  // namespace
}  // namespace fedmigr::core
