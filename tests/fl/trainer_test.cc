// Integration tests of the FL experiment loop: traffic arithmetic, stopping
// rules, migration bookkeeping and learning progress on a tiny workload.

#include "fl/trainer.h"

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/schemes.h"
#include "net/sim_topologies.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::fl {
namespace {

struct TinyWorkload {
  TinyWorkload() {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 20;
    spec.test_per_class = 5;
    data = data::GenerateSynthetic(spec);
    topology = net::MakeC10SimTopology();
    devices = net::MakeUniformFleet(10);
    util::Rng rng(3);
    partition = data::PartitionByClassShards(data.train, 10, 1, &rng);
  }

  Trainer MakeTrainer(SchemeSetup setup) {
    setup.config.max_epochs = setup.config.max_epochs == 200
                                  ? 6
                                  : setup.config.max_epochs;
    return Trainer(setup.config, &data.train, partition, &data.test,
                   topology, devices,
                   [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                   std::move(setup.policy));
  }

  data::TrainTest data;
  data::Partition partition;
  net::Topology topology;
  std::vector<net::DeviceProfile> devices;
};

TEST(TrainerTest, FedAvgTrafficArithmetic) {
  TinyWorkload w;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 4;
  setup.config.eval_every = 2;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();

  // FedAvg: every epoch uploads + downloads all 10 models over the WAN.
  util::Rng rng(1);
  const int64_t model_bytes = nn::MakeC10Net(&rng).ByteSize();
  EXPECT_EQ(result.epochs_run, 4);
  EXPECT_DOUBLE_EQ(result.c2c_gb, 0.0);
  EXPECT_NEAR(result.traffic_gb,
              static_cast<double>(4 * 2 * 10 * model_bytes) / 1e9, 1e-9);
  EXPECT_GT(result.time_s, 0.0);
}

TEST(TrainerTest, MigrationSchemeUsesC2cTraffic) {
  TinyWorkload w;
  SchemeSetup setup = MakeRandMigr(/*agg_period=*/3);
  setup.config.max_epochs = 6;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  EXPECT_GT(result.c2c_gb, 0.0);
  EXPECT_GT(result.c2s_gb, 0.0);
  // Aggregations at epochs 3 and 6; migrations elsewhere.
  int aggregations = 0, migration_epochs = 0;
  for (const auto& record : result.history) {
    if (record.aggregated) ++aggregations;
    if (record.migrations > 0) ++migration_epochs;
  }
  EXPECT_EQ(aggregations, 2);
  EXPECT_EQ(migration_epochs, 4);
}

TEST(TrainerTest, FedSwapTrafficIsAllC2s) {
  TinyWorkload w;
  SchemeSetup setup = MakeFedSwap(/*agg_period=*/3);
  setup.config.max_epochs = 3;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  EXPECT_EQ(result.c2c_gb, 0.0);
  EXPECT_GT(result.c2s_gb, 0.0);
}

TEST(TrainerTest, HistoryIsMonotoneInTimeAndTraffic) {
  TinyWorkload w;
  SchemeSetup setup = MakeRandMigr(2);
  setup.config.max_epochs = 6;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  for (size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GE(result.history[i].cumulative_time_s,
              result.history[i - 1].cumulative_time_s);
    EXPECT_GE(result.history[i].cumulative_traffic_gb,
              result.history[i - 1].cumulative_traffic_gb);
    EXPECT_EQ(result.history[i].epoch, static_cast<int>(i) + 1);
  }
}

TEST(TrainerTest, BandwidthBudgetStopsTraining) {
  TinyWorkload w;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 50;
  util::Rng rng(1);
  const double model_bytes =
      static_cast<double>(nn::MakeC10Net(&rng).ByteSize());
  // Enough for ~2 epochs of 20 WAN transfers.
  setup.config.budget = net::Budget(1e12, 2.5 * 20 * model_bytes);
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_LT(result.epochs_run, 10);
}

TEST(TrainerTest, TargetAccuracyStopsEarly) {
  TinyWorkload w;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 60;
  setup.config.eval_every = 2;
  setup.config.target_accuracy = 0.15;  // barely above chance
  setup.config.learning_rate = 0.08;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  EXPECT_TRUE(result.reached_target);
  EXPECT_GT(result.epochs_to_target, 0);
  EXPECT_LE(result.epochs_to_target, 60);
  EXPECT_GT(result.traffic_to_target_gb, 0.0);
  EXPECT_LE(result.epochs_run, 60);
}

TEST(TrainerTest, AccuracyImprovesOverTraining) {
  TinyWorkload w;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 30;
  setup.config.eval_every = 5;
  setup.config.learning_rate = 0.08;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  EXPECT_GT(result.best_accuracy, 0.25);  // way above the 0.1 chance level
}

TEST(TrainerTest, DpNoiseStillRuns) {
  TinyWorkload w;
  SchemeSetup setup = MakeRandMigr(2);
  setup.config.max_epochs = 4;
  setup.config.dp.epsilon = 100.0;
  setup.config.dp.clip_norm = 20.0;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  EXPECT_EQ(result.epochs_run, 4);
}

TEST(TrainerTest, LastEpochAlwaysAggregates) {
  TinyWorkload w;
  SchemeSetup setup = MakeRandMigr(/*agg_period=*/4);
  setup.config.max_epochs = 6;  // not a multiple of agg_period
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  EXPECT_TRUE(result.history.back().aggregated);
}

TEST(TrainerTest, SharedWanSerializesUploads) {
  TinyWorkload w;
  auto run = [&w](bool shared) {
    SchemeSetup setup = MakeFedAvg();
    setup.config.max_epochs = 2;
    setup.config.eval_every = 0;
    setup.config.wan_shared = shared;
    Trainer trainer = w.MakeTrainer(std::move(setup));
    return trainer.Run();
  };
  const RunResult shared = run(true);
  const RunResult parallel = run(false);
  // Same traffic either way; the shared WAN takes longer because the
  // 2 x 10 transfers per epoch serialize (compute time is identical, so
  // the difference is pure link contention).
  EXPECT_DOUBLE_EQ(shared.traffic_gb, parallel.traffic_gb);
  EXPECT_GT(shared.time_s, parallel.time_s + 0.5);
}

TEST(TrainerTest, ToleratesEmptyClient) {
  TinyWorkload w;
  // Give client 0's data away to client 1.
  auto& from = w.partition[0];
  auto& to = w.partition[1];
  to.insert(to.end(), from.begin(), from.end());
  from.clear();
  SchemeSetup setup = MakeRandMigr(2);
  setup.config.max_epochs = 4;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  const RunResult result = trainer.Run();
  EXPECT_EQ(result.epochs_run, 4);
}

TEST(TrainerTest, DeterministicGivenSeed) {
  TinyWorkload w;
  auto run = [&w]() {
    SchemeSetup setup = MakeRandMigr(2);
    setup.config.max_epochs = 4;
    setup.config.seed = 77;
    Trainer trainer = w.MakeTrainer(std::move(setup));
    return trainer.Run();
  };
  const RunResult a = run();
  const RunResult b = run();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].train_loss, b.history[i].train_loss);
  }
  EXPECT_DOUBLE_EQ(a.traffic_gb, b.traffic_gb);
}

}  // namespace
}  // namespace fedmigr::fl
