#include "core/experiment.h"

#include <gtest/gtest.h>

#include "data/distribution.h"
#include "data/distribution_oracles.h"

namespace fedmigr::core {
namespace {

TEST(WorkloadTest, C10Defaults) {
  WorkloadConfig config;
  const Workload w = MakeWorkload(config);
  EXPECT_EQ(w.num_classes, 10);
  EXPECT_EQ(w.model_name, "c10");
  EXPECT_EQ(w.topology.num_clients(), 10);
  EXPECT_EQ(w.topology.num_lans(), 3);
  EXPECT_EQ(w.partition.size(), 10u);
  EXPECT_TRUE(data::IsExactCover(w.partition, w.data.train.size()));
  EXPECT_EQ(w.devices.size(), 10u);
}

TEST(WorkloadTest, C100UsesTwentyClients) {
  WorkloadConfig config;
  config.dataset = "c100";
  config.num_clients = 20;
  config.num_lans = 5;
  const Workload w = MakeWorkload(config);
  EXPECT_EQ(w.num_classes, 100);
  EXPECT_EQ(w.model_name, "c100");
  EXPECT_EQ(w.partition.size(), 20u);
}

TEST(WorkloadTest, ImageNetUsesResMini) {
  WorkloadConfig config;
  config.dataset = "imagenet100";
  config.num_clients = 20;
  const Workload w = MakeWorkload(config);
  EXPECT_EQ(w.model_name, "resmini");
  util::Rng rng(1);
  nn::Sequential model = w.model_factory(&rng);
  EXPECT_GT(model.NumParams(), 0);
}

TEST(WorkloadTest, ShardPartitionIsSkewed) {
  WorkloadConfig config;
  config.partition = PartitionKind::kShard;
  const Workload w = MakeWorkload(config);
  const auto population = data::PopulationDistribution(w.data.train);
  const auto dist = data::LabelDistribution(w.data.train, w.partition[0]);
  EXPECT_GT(data::EmdDistance(dist, population), 1.5);
}

TEST(WorkloadTest, IidPartitionIsBalanced) {
  WorkloadConfig config;
  config.partition = PartitionKind::kIid;
  const Workload w = MakeWorkload(config);
  const auto population = data::PopulationDistribution(w.data.train);
  for (const auto& part : w.partition) {
    EXPECT_LT(data::EmdDistance(data::LabelDistribution(w.data.train, part),
                                population),
              0.6);
  }
}

TEST(WorkloadTest, LanShardSharesDistributionWithinLan) {
  WorkloadConfig config;
  config.partition = PartitionKind::kLanShard;
  const Workload w = MakeWorkload(config);
  const auto d0 = data::LabelDistribution(w.data.train, w.partition[0]);
  const auto d1 = data::LabelDistribution(w.data.train, w.partition[1]);
  EXPECT_LT(data::EmdDistance(d0, d1), 0.2);
}

TEST(WorkloadTest, OverridesApply) {
  WorkloadConfig config;
  config.noise_override = 3.0;
  config.train_per_class_override = 7;
  const Workload w = MakeWorkload(config);
  EXPECT_EQ(w.data.train.size(), 70);
}

TEST(WorkloadTest, DefaultsSetLearningRate) {
  const Workload w = MakeWorkload(WorkloadConfig{});
  fl::TrainerConfig config;
  ApplyWorkloadDefaults(w, &config);
  EXPECT_GT(config.learning_rate, 0.0);
  EXPECT_GT(config.batch_size, 0);
}

TEST(RunSchemeTest, ExecutesEndToEnd) {
  WorkloadConfig wc;
  wc.train_per_class_override = 20;
  const Workload w = MakeWorkload(wc);
  fl::SchemeSetup setup = fl::MakeFedAvg();
  setup.config.max_epochs = 2;
  const fl::RunResult result = RunScheme(w, std::move(setup));
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_GT(result.traffic_gb, 0.0);
}

}  // namespace
}  // namespace fedmigr::core
