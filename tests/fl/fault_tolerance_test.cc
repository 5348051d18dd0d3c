// End-to-end fault-tolerance behavior of the FL loop: the trainer must
// degrade gracefully under link failures, crashes, stragglers and payload
// corruption — and be bit-identical to the fault-free path when every
// fault probability is zero.

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

  RunResult Run(SchemeSetup setup) {
    Trainer trainer(setup.config, &data.train, partition, &data.test,
                    topology, devices,
                    [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                    std::move(setup.policy));
    return trainer.Run();
  }

  data::TrainTest data;
  data::Partition partition;
  net::Topology topology;
  std::vector<net::DeviceProfile> devices;
};

TEST(FaultToleranceTest, DisabledInjectorIsBitIdenticalRegardlessOfSeed) {
  // With every fault probability at zero the injector must be a strict
  // no-op: changing its seed cannot perturb the trajectory, because the
  // fault-free path draws nothing from the injector's RNG stream.
  TinyWorkload w;
  auto run = [&w](uint64_t fault_seed) {
    SchemeSetup setup = MakeRandMigr(2);
    setup.config.max_epochs = 4;
    setup.config.seed = 7;
    setup.config.fault.seed = fault_seed;
    return w.Run(std::move(setup));
  };
  const RunResult a = run(97);
  const RunResult b = run(1234567);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].train_loss, b.history[i].train_loss);
    EXPECT_DOUBLE_EQ(a.history[i].test_accuracy, b.history[i].test_accuracy);
    EXPECT_EQ(a.history[i].migrations, b.history[i].migrations);
  }
  EXPECT_DOUBLE_EQ(a.traffic_gb, b.traffic_gb);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  // And the counters stay untouched.
  EXPECT_EQ(a.faults.attempts, 0);
  EXPECT_EQ(a.faults.failures, 0);
  EXPECT_EQ(a.faults.crashes, 0);
}

TEST(FaultToleranceTest, LinkFailuresDegradeGracefully) {
  TinyWorkload w;
  SchemeSetup clean_setup = MakeRandMigr(3);
  clean_setup.config.max_epochs = 6;
  const RunResult clean = w.Run(std::move(clean_setup));

  SchemeSetup faulty_setup = MakeRandMigr(3);
  faulty_setup.config.max_epochs = 6;
  faulty_setup.config.fault.link_failure_prob = 0.2;
  const RunResult faulty = w.Run(std::move(faulty_setup));

  // The run completes despite in-flight losses, with real retry traffic.
  EXPECT_EQ(faulty.epochs_run, 6);
  EXPECT_GT(faulty.faults.attempts, 0);
  EXPECT_GT(faulty.faults.failures, 0);
  EXPECT_GT(faulty.faults.retries, 0);
  // Retries and fallbacks push the failed bytes into the network on top of
  // the clean run's traffic.
  EXPECT_GT(faulty.traffic_gb, clean.traffic_gb);
  // Training still makes progress (above the 0.1 chance level is too
  // strict for 6 epochs; non-trivial accuracy is the graceful-degradation
  // bar here).
  EXPECT_GT(faulty.best_accuracy, 0.0);
}

TEST(FaultToleranceTest, FailedC2cMovesFallBackViaServer) {
  TinyWorkload w;
  SchemeSetup setup = MakeRandMigr(2);
  setup.config.max_epochs = 6;
  setup.config.fault.link_failure_prob = 0.45;
  setup.config.fault.max_retries = 0;  // every in-flight loss falls back
  const RunResult result = w.Run(std::move(setup));
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_GT(result.faults.fallbacks, 0);
  // Fallback hops are charged as C2S traffic even on migration epochs.
  EXPECT_GT(result.c2s_gb, 0.0);
}

TEST(FaultToleranceTest, CorruptedUploadsAreRejectedFromAggregation) {
  TinyWorkload w;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 2;
  setup.config.eval_every = 0;
  setup.config.fault.corruption_prob = 1.0;
  const RunResult result = w.Run(std::move(setup));
  // Every delivery is corrupted; the CRC32 in the serialized frame catches
  // each one, the payload never enters the average, and the loop survives
  // rounds where nothing arrives at all.
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_GT(result.faults.corrupted, 0);
  EXPECT_EQ(result.faults.corrupt_rejected, result.faults.corrupted);
}

TEST(FaultToleranceTest, CrashedClientsAreMaskedOut) {
  TinyWorkload w;
  SchemeSetup setup = MakeRandMigr(2);
  setup.config.max_epochs = 8;
  setup.config.fault.crash_prob = 0.3;
  setup.config.fault.crash_min_epochs = 1;
  setup.config.fault.crash_max_epochs = 2;
  const RunResult result = w.Run(std::move(setup));
  EXPECT_EQ(result.epochs_run, 8);
  EXPECT_GT(result.faults.crashes, 0);
  EXPECT_GT(result.faults.crash_epochs, 0);
}

TEST(FaultToleranceTest, UploadDeadlineDropsStragglers) {
  TinyWorkload w;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 2;
  setup.config.eval_every = 0;
  setup.config.wan_shared = true;
  // Enable the fault layer without perturbing anything else: every client
  // is a "straggler" with a 1x slowdown.
  setup.config.fault.straggler_prob = 1.0;
  setup.config.fault.straggler_slowdown = 1.0;
  setup.config.fault.upload_deadline_s = 1e-6;  // nobody makes it in time
  const RunResult result = w.Run(std::move(setup));
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_GT(result.faults.dropped_stragglers, 0);
  // All uploads missed the deadline, so no aggregation happened — but the
  // loop carried on with the standing global model.
}

TEST(FaultToleranceTest, StragglerSlowdownStretchesTheClock) {
  TinyWorkload w;
  auto run = [&w](double prob, double slowdown) {
    SchemeSetup setup = MakeFedAvg();
    setup.config.max_epochs = 2;
    setup.config.eval_every = 0;
    setup.config.fault.straggler_prob = prob;
    setup.config.fault.straggler_slowdown = slowdown;
    return w.Run(std::move(setup));
  };
  const RunResult clean = run(0.0, 4.0);
  const RunResult slowed = run(1.0, 4.0);
  EXPECT_EQ(slowed.traffic_gb, clean.traffic_gb);  // same bytes, slower
  EXPECT_GT(slowed.time_s, clean.time_s);
}

TEST(FaultToleranceTest, FedMigrSurvivesLinkFailures) {
  // The DRL scheme must keep planning when transfers fail and clients
  // crash: unavailable clients are masked out of the action space.
  TinyWorkload w;
  SchemeSetup setup = MakeFedMigrFlmm(2);
  setup.config.max_epochs = 6;
  setup.config.fault.link_failure_prob = 0.2;
  setup.config.fault.crash_prob = 0.2;
  const RunResult result = w.Run(std::move(setup));
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_GT(result.faults.attempts, 0);
}

}  // namespace
}  // namespace fedmigr::fl
