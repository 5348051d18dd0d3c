// Tests of partial participation (FedAvg's α fraction) and client dropout.

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

struct Fixture {
  Fixture() {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 16;
    spec.test_per_class = 4;
    data = data::GenerateSynthetic(spec);
  }

  RunResult Run(SchemeSetup setup) {
    util::Rng rng(9);
    data::Partition partition =
        data::PartitionByClassShards(data.train, 10, 1, &rng);
    Trainer trainer(setup.config, &data.train, std::move(partition),
                    &data.test, net::MakeC10SimTopology(),
                    net::MakeUniformFleet(10),
                    [](util::Rng* r) { return nn::MakeC10Net(r); },
                    std::move(setup.policy));
    return trainer.Run();
  }

  data::TrainTest data;
};

TEST(ParticipationTest, HalfFractionHalvesUploadTraffic) {
  Fixture f;
  auto make = [](double fraction) {
    SchemeSetup setup = MakeFedAvg();
    setup.config.max_epochs = 4;
    setup.config.eval_every = 0;
    setup.config.client_fraction = fraction;
    return setup;
  };
  const RunResult full = f.Run(make(1.0));
  const RunResult half = f.Run(make(0.5));
  // Upload side halves; downloads still go to everyone. FedAvg traffic =
  // uploads + downloads, so half-participation sits strictly between 50%
  // and 100% of the full-participation traffic.
  EXPECT_LT(half.c2s_gb, full.c2s_gb);
  EXPECT_GT(half.c2s_gb, 0.5 * full.c2s_gb * 0.99);
}

TEST(ParticipationTest, FractionStillLearns) {
  Fixture f;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 20;
  setup.config.client_fraction = 0.5;
  setup.config.eval_every = 10;
  setup.config.learning_rate = 0.08;
  const RunResult result = f.Run(std::move(setup));
  EXPECT_GT(result.best_accuracy, 0.12);  // above the 0.1 chance level
}

TEST(ParticipationTest, TinyFractionSelectsAtLeastOne) {
  Fixture f;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 2;
  setup.config.client_fraction = 0.01;
  const RunResult result = f.Run(std::move(setup));
  // One upload + K downloads per epoch: traffic is positive and small.
  EXPECT_GT(result.c2s_gb, 0.0);
}

TEST(DropoutTest, DropoutReducesComputeAndKeepsRunning) {
  Fixture f;
  auto make = [](double dropout) {
    SchemeSetup setup = MakeRandMigr(2);
    setup.config.max_epochs = 8;
    setup.config.eval_every = 0;
    setup.config.dropout_prob = dropout;
    setup.config.seed = 33;
    return setup;
  };
  const RunResult stable = f.Run(make(0.0));
  const RunResult flaky = f.Run(make(0.4));
  EXPECT_EQ(flaky.epochs_run, 8);
  // Fewer client-epochs of work -> fewer samples processed.
  EXPECT_LT(flaky.compute_units, stable.compute_units);
  // Migrations involving dropped endpoints are cancelled.
  EXPECT_LT(flaky.c2c_gb, stable.c2c_gb);
}

TEST(DropoutTest, FullAvailabilityMatchesDefault) {
  Fixture f;
  auto run = [&f](double dropout) {
    SchemeSetup setup = MakeFedAvg();
    setup.config.max_epochs = 3;
    setup.config.dropout_prob = dropout;
    setup.config.seed = 44;
    return f.Run(std::move(setup));
  };
  const RunResult a = run(0.0);
  const RunResult b = run(0.0);
  EXPECT_DOUBLE_EQ(a.traffic_gb, b.traffic_gb);
}

TEST(ParticipationTest, MigrationSchemesRespectParticipation) {
  Fixture f;
  SchemeSetup setup = MakeRandMigr(3);
  setup.config.max_epochs = 6;
  setup.config.client_fraction = 0.5;
  const RunResult result = f.Run(std::move(setup));
  EXPECT_EQ(result.epochs_run, 6);
  // With 5 of 10 clients active, per-aggregation uploads drop to 5.
  // 2 aggregations x (5 up + 10 down) + migrations.
  EXPECT_GT(result.c2s_gb, 0.0);
}

}  // namespace
}  // namespace fedmigr::fl
