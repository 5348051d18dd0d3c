// Property sweeps over the trainer: traffic conservation, budget
// monotonicity and scheme invariants across a grid of configurations.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/schemes.h"
#include "fl/trainer.h"
#include "net/sim_topologies.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::fl {
namespace {

struct SharedData {
  SharedData() {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 16;
    spec.test_per_class = 4;
    data = data::GenerateSynthetic(spec);
  }
  data::TrainTest data;
};

SharedData& Shared() {
  static SharedData* shared = new SharedData;
  return *shared;
}

RunResult RunConfig(const std::string& scheme, int agg_period, int epochs,
                    uint64_t seed) {
  SchemeSetup setup = MakeSchemeByName(scheme, agg_period);
  setup.config.max_epochs = epochs;
  setup.config.eval_every = 0;  // metrics only; no evaluation cost
  setup.config.seed = seed;
  const net::Topology topology = net::MakeC10SimTopology();
  util::Rng rng(seed);
  data::Partition partition =
      data::PartitionByClassShards(Shared().data.train, 10, 1, &rng);
  Trainer trainer(setup.config, &Shared().data.train, std::move(partition),
                  &Shared().data.test, topology, net::MakeUniformFleet(10),
                  [](util::Rng* r) { return nn::MakeC10Net(r); },
                  std::move(setup.policy));
  return trainer.Run();
}

// The scheme is a std::string, not a const char*, so gtest prints the
// parameter by value and the discovered test names stay the same from
// one build to the next instead of embedding a string-literal address.
class SchemeSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SchemeSweep, TrafficSplitsAreConsistent) {
  const auto [scheme, agg_period] = GetParam();
  const RunResult result = RunConfig(scheme, agg_period, 6, 21);
  // Total = C2S + C2C, and the accountant's view matches the summary.
  EXPECT_NEAR(result.traffic_gb, result.c2s_gb + result.c2c_gb, 1e-12);
  EXPECT_NEAR(static_cast<double>(result.traffic.total_bytes()) / 1e9,
              result.traffic_gb, 1e-12);
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_FALSE(result.history.empty());
}

TEST_P(SchemeSweep, AggregationCadenceHonored) {
  const auto [scheme, agg_period] = GetParam();
  const RunResult result = RunConfig(scheme, agg_period, 6, 22);
  for (const auto& record : result.history) {
    const bool should_aggregate =
        record.epoch % agg_period == 0 || record.epoch == 6;
    EXPECT_EQ(record.aggregated, should_aggregate)
        << scheme << " epoch " << record.epoch;
    if (!record.aggregated && scheme != "fedavg" && scheme != "fedprox") {
      EXPECT_GT(record.migrations, 0) << scheme;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchemeSweep,
    ::testing::Values(std::make_tuple("fedavg", 1),
                      std::make_tuple("fedprox", 1),
                      std::make_tuple("fedswap", 2),
                      std::make_tuple("fedswap", 3),
                      std::make_tuple("randmigr", 2),
                      std::make_tuple("randmigr", 3),
                      std::make_tuple("fedmigr-flmm", 3),
                      std::make_tuple("maxemd", 2)));

TEST(TrainerPropertyTest, MoreEpochsNeverLessTraffic) {
  const RunResult short_run = RunConfig("randmigr", 2, 4, 23);
  const RunResult long_run = RunConfig("randmigr", 2, 8, 23);
  EXPECT_GT(long_run.traffic_gb, short_run.traffic_gb);
  EXPECT_GT(long_run.time_s, short_run.time_s);
}

TEST(TrainerPropertyTest, FedAvgBeatsMigrationOnC2sPerEpoch) {
  // Per epoch, FedAvg moves 2K models over the WAN while migration schemes
  // move only the periodic aggregations — the core bandwidth claim.
  const RunResult fedavg = RunConfig("fedavg", 1, 6, 24);
  const RunResult randmigr = RunConfig("randmigr", 3, 6, 24);
  EXPECT_LT(randmigr.c2s_gb, fedavg.c2s_gb);
}

TEST(TrainerPropertyTest, SwapCostsMoreWanThanMigration) {
  const RunResult fedswap = RunConfig("fedswap", 3, 6, 25);
  const RunResult randmigr = RunConfig("randmigr", 3, 6, 25);
  EXPECT_GT(fedswap.c2s_gb, randmigr.c2s_gb);
  EXPECT_EQ(fedswap.c2c_gb, 0.0);
}

}  // namespace
}  // namespace fedmigr::fl
