// Trainer state save/restore: a run snapshotted at an epoch boundary and
// reloaded into a freshly built trainer must continue bit-identically.

#include <algorithm>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/schemes.h"
#include "fl/trainer.h"
#include "net/sim_topologies.h"
#include "nn/zoo.h"
#include "util/rng.h"
#include "util/serial.h"

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

// A scheme exercising every snapshotted stream: migrations, dropout (trainer
// RNG), faults (injector RNG + counters) and FedProx references.
SchemeSetup StatefulScheme() {
  SchemeSetup setup = MakeRandMigr(/*agg_period=*/2);
  setup.config.max_epochs = 6;
  setup.config.eval_every = 2;
  setup.config.seed = 77;
  setup.config.dropout_prob = 0.1;
  setup.config.fedprox_mu = 0.01;
  setup.config.fault.link_failure_prob = 0.1;
  setup.config.fault.corruption_prob = 0.05;
  setup.config.fault.straggler_prob = 0.2;
  setup.config.fault.seed = 13;
  return setup;
}

std::vector<uint8_t> StateBytes(const Trainer& trainer) {
  util::ByteWriter writer;
  trainer.SaveState(&writer);
  return writer.TakeBytes();
}

TEST(TrainerSnapshotTest, ResumedRunIsBitIdentical) {
  TinyWorkload w;
  for (int kill_epoch : {2, 3, 5}) {
    // Reference: the uninterrupted run.
    Trainer reference = w.MakeTrainer(StatefulScheme());
    const RunResult ref_result = reference.Run();
    EXPECT_FALSE(ref_result.interrupted);
    const std::vector<uint8_t> ref_bytes = StateBytes(reference);

    // Killed: same run, stopped by the hook after `kill_epoch`; the state
    // snapshot is taken there (what the snapshot file would hold).
    Trainer killed = w.MakeTrainer(StatefulScheme());
    killed.SetEpochHook([kill_epoch](const Trainer&, int epoch) {
      return epoch < kill_epoch;
    });
    const RunResult killed_result = killed.Run();
    EXPECT_TRUE(killed_result.interrupted);
    EXPECT_EQ(killed_result.epochs_run, kill_epoch);
    EXPECT_EQ(killed.next_epoch(), kill_epoch + 1);
    const std::vector<uint8_t> mid_bytes = StateBytes(killed);

    // Resumed: a freshly built trainer loads the mid-run state and runs to
    // completion.
    Trainer resumed = w.MakeTrainer(StatefulScheme());
    util::ByteReader reader(mid_bytes);
    ASSERT_TRUE(resumed.LoadState(&reader).ok());
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(resumed.next_epoch(), kill_epoch + 1);
    const RunResult resumed_result = resumed.Run();
    EXPECT_FALSE(resumed_result.interrupted);

    // The contract: final serialized state (models, RNGs, history, fault
    // counters, policy) is byte-identical to the uninterrupted run.
    EXPECT_EQ(StateBytes(resumed), ref_bytes) << "kill at " << kill_epoch;
    ASSERT_EQ(resumed_result.history.size(), ref_result.history.size());
    for (size_t i = 0; i < ref_result.history.size(); ++i) {
      EXPECT_EQ(resumed_result.history[i].train_loss,
                ref_result.history[i].train_loss);
      EXPECT_EQ(resumed_result.history[i].test_accuracy,
                ref_result.history[i].test_accuracy);
    }
    EXPECT_EQ(resumed_result.final_accuracy, ref_result.final_accuracy);
    EXPECT_EQ(resumed_result.traffic_gb, ref_result.traffic_gb);
    EXPECT_EQ(resumed_result.time_s, ref_result.time_s);
  }
}

TEST(TrainerSnapshotTest, ResumingACompletedRunReturnsTheSameResult) {
  TinyWorkload w;
  Trainer reference = w.MakeTrainer(StatefulScheme());
  const RunResult ref_result = reference.Run();
  const std::vector<uint8_t> final_bytes = StateBytes(reference);

  Trainer resumed = w.MakeTrainer(StatefulScheme());
  util::ByteReader reader(final_bytes);
  ASSERT_TRUE(resumed.LoadState(&reader).ok());
  EXPECT_TRUE(resumed.done());
  const RunResult resumed_result = resumed.Run();  // no epochs left
  EXPECT_EQ(resumed_result.epochs_run, ref_result.epochs_run);
  EXPECT_EQ(resumed_result.final_accuracy, ref_result.final_accuracy);
  EXPECT_EQ(StateBytes(resumed), final_bytes);
}

TEST(TrainerSnapshotTest, FingerprintMismatchIsRejected) {
  TinyWorkload w;
  Trainer source = w.MakeTrainer(StatefulScheme());
  source.SetEpochHook([](const Trainer&, int epoch) { return epoch < 2; });
  source.Run();
  const std::vector<uint8_t> bytes = StateBytes(source);

  {
    SchemeSetup other = StatefulScheme();
    other.config.seed = 78;  // different trainer seed
    Trainer victim = w.MakeTrainer(std::move(other));
    util::ByteReader reader(bytes);
    EXPECT_FALSE(victim.LoadState(&reader).ok());
  }
  {
    SchemeSetup other = StatefulScheme();
    other.config.agg_period = 3;  // different schedule
    Trainer victim = w.MakeTrainer(std::move(other));
    util::ByteReader reader(bytes);
    EXPECT_FALSE(victim.LoadState(&reader).ok());
  }
  {
    SchemeSetup other = MakeFedAvg();
    other.config.max_epochs = 6;
    other.config.seed = 77;
    Trainer victim = w.MakeTrainer(std::move(other));
    util::ByteReader reader(bytes);
    EXPECT_FALSE(victim.LoadState(&reader).ok());
  }
}

TEST(TrainerSnapshotTest, TruncatedStateIsRejected) {
  TinyWorkload w;
  Trainer source = w.MakeTrainer(StatefulScheme());
  source.SetEpochHook([](const Trainer&, int epoch) { return epoch < 2; });
  source.Run();
  const std::vector<uint8_t> bytes = StateBytes(source);
  // A sweep over many truncation points; every one must fail cleanly (the
  // snapshot container's CRC normally rejects these before LoadState, but
  // the parser itself must also hold the line).
  for (size_t cut = 0; cut < bytes.size();
       cut += std::max<size_t>(1, bytes.size() / 97)) {
    Trainer victim = w.MakeTrainer(StatefulScheme());
    util::ByteReader reader(bytes.data(), cut);
    EXPECT_FALSE(victim.LoadState(&reader).ok()) << "cut " << cut;
  }
}

TEST(TrainerSnapshotTest, EpochHookStopFlagsInterruption) {
  TinyWorkload w;
  SchemeSetup setup = StatefulScheme();
  setup.config.max_epochs = 3;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  trainer.SetEpochHook([](const Trainer&, int) { return false; });
  const RunResult result = trainer.Run();
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.epochs_run, 1);
}

TEST(TrainerSnapshotTest, HookStopOnFinalEpochIsNotAnInterruption) {
  TinyWorkload w;
  SchemeSetup setup = StatefulScheme();
  setup.config.max_epochs = 1;
  Trainer trainer = w.MakeTrainer(std::move(setup));
  trainer.SetEpochHook([](const Trainer&, int) { return false; });
  const RunResult result = trainer.Run();
  EXPECT_FALSE(result.interrupted);
  EXPECT_TRUE(trainer.done());
}

}  // namespace
}  // namespace fedmigr::fl
