// The kill-and-resume determinism harness and container-corruption fuzz for
// the run-snapshot subsystem.
//
// Headline property: run N epochs uninterrupted (reference); kill a second
// run at an epoch boundary (including via a simulated torn/truncated
// snapshot write); resume from the snapshot directory; the final serialized
// trainer state — server model bytes, every client model/optimizer/RNG, the
// DRL agent and its prioritized replay buffer, fault counters, accuracy
// trace — must be byte-identical to the reference.

#include "core/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/fedmigr.h"
#include "util/file.h"
#include "util/serial.h"

namespace fedmigr::core {
namespace {

WorkloadConfig SmallWorkloadConfig() {
  WorkloadConfig config;
  config.train_per_class_override = 12;
  config.seed = 5;
  return config;
}

// FedMigr with the full DRL stack: online learning ON so the snapshot must
// carry the replay buffer, Adam moments and policy RNG, not just models.
// cache_agent = false so the reference and resumed runs never share (and
// mutate) one agent instance.
fl::SchemeSetup SmallFedMigr(const Workload& w) {
  FedMigrOptions options;
  options.agg_period = 2;
  options.cache_agent = false;
  options.pretrain.episodes = 3;
  options.policy.online_learning = true;
  fl::SchemeSetup setup =
      MakeFedMigr(w.topology, w.num_classes, options);
  setup.config.max_epochs = 6;
  setup.config.eval_every = 2;
  setup.config.seed = 42;
  setup.config.dropout_prob = 0.1;
  setup.config.fault.link_failure_prob = 0.05;
  setup.config.fault.corruption_prob = 0.02;
  setup.config.fault.seed = 19;
  ApplyWorkloadDefaults(w, &setup.config);
  setup.config.max_epochs = 6;
  setup.config.eval_every = 2;
  return setup;
}

fl::Trainer BuildTrainer(const Workload& w, fl::SchemeSetup setup) {
  return fl::Trainer(setup.config, &w.data.train, w.partition, &w.data.test,
                     w.topology, w.devices, w.model_factory,
                     std::move(setup.policy));
}

std::vector<uint8_t> StateBytes(const fl::Trainer& trainer) {
  util::ByteWriter writer;
  trainer.SaveState(&writer);
  return writer.TakeBytes();
}

// Fresh per-test scratch directory (existing snapshots removed).
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "fedmigr_snap_" + tag;
  EXPECT_TRUE(util::MakeDirectories(dir).ok());
  const util::Result<std::vector<std::string>> names =
      util::ListDirectory(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      EXPECT_TRUE(util::RemoveFile(dir + "/" + name).ok());
    }
  }
  return dir;
}

// --- Container framing ----------------------------------------------------

TEST(SnapshotFrameTest, RoundTrips) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 0, 255};
  const std::vector<uint8_t> framed = FrameSnapshot(payload);
  EXPECT_EQ(framed.size(), payload.size() + 20);  // 16B header + 4B crc
  const util::Result<std::vector<uint8_t>> back = UnframeSnapshot(framed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, payload);
}

TEST(SnapshotFrameTest, EmptyPayloadRoundTrips) {
  const util::Result<std::vector<uint8_t>> back =
      UnframeSnapshot(FrameSnapshot({}));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(SnapshotFrameTest, TruncationAtEveryLengthRejected) {
  const std::vector<uint8_t> framed =
      FrameSnapshot({10, 20, 30, 40, 50, 60, 70, 80, 90});
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    const std::vector<uint8_t> torn(framed.begin(),
                                    framed.begin() + static_cast<long>(cut));
    EXPECT_FALSE(UnframeSnapshot(torn).ok()) << "cut " << cut;
  }
}

TEST(SnapshotFrameTest, EveryBitFlipRejected) {
  const std::vector<uint8_t> framed = FrameSnapshot({7, 7, 7, 42, 0, 9});
  for (size_t pos = 0; pos < framed.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = framed;
      corrupt[pos] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(UnframeSnapshot(corrupt).ok())
          << "flip at byte " << pos << " bit " << bit;
    }
  }
}

TEST(SnapshotFrameTest, TrailingGarbageRejected) {
  std::vector<uint8_t> framed = FrameSnapshot({1, 2, 3});
  framed.push_back(0xAB);
  EXPECT_FALSE(UnframeSnapshot(framed).ok());
}

TEST(SnapshotFrameTest, FileRoundTripAndTornFileRejected) {
  const std::string dir = FreshDir("frame_file");
  const std::string path = dir + "/snap-000001.fsnp";
  const std::vector<uint8_t> payload = {9, 8, 7, 6};
  ASSERT_TRUE(WriteSnapshotFile(path, payload).ok());
  const util::Result<std::vector<uint8_t>> back = ReadSnapshotFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);

  // Simulate a torn write published by a crashed filesystem: truncate the
  // file in place.
  const util::Result<std::vector<uint8_t>> full = util::ReadFileBytes(path);
  ASSERT_TRUE(full.ok());
  std::vector<uint8_t> torn(full->begin(), full->begin() + 10);
  ASSERT_TRUE(util::AtomicWriteFile(path, torn).ok());
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
  EXPECT_FALSE(ReadSnapshotFile(dir + "/missing.fsnp").ok());
}

// --- SnapshotManager cadence, rotation, fallback --------------------------

TEST(SnapshotManagerTest, SavesOnCadenceAndRotates) {
  const Workload w = MakeWorkload(SmallWorkloadConfig());
  fl::SchemeSetup setup = fl::MakeRandMigr(2);
  setup.config.max_epochs = 6;
  setup.config.seed = 9;
  fl::Trainer trainer = BuildTrainer(w, std::move(setup));

  SnapshotOptions options;
  options.directory = FreshDir("rotate");
  options.every_epochs = 1;
  options.keep = 2;
  SnapshotManager manager(options);
  for (int epoch = 1; epoch <= 5; ++epoch) {
    ASSERT_TRUE(manager.Save(trainer, epoch).ok());
  }
  const std::vector<std::string> snapshots = manager.ListSnapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_NE(snapshots[0].find("snap-000005.fsnp"), std::string::npos);
  EXPECT_NE(snapshots[1].find("snap-000004.fsnp"), std::string::npos);
}

TEST(SnapshotManagerTest, RotatesSnapshotsAnEarlierProcessLeft) {
  // A manager lists its directory once, on its first save: the snapshots an
  // earlier process published rotate out with its own, and a re-save of an
  // epoch is one file, not two.
  const Workload w = MakeWorkload(SmallWorkloadConfig());
  fl::SchemeSetup setup = fl::MakeRandMigr(2);
  setup.config.max_epochs = 6;
  setup.config.seed = 9;
  fl::Trainer trainer = BuildTrainer(w, std::move(setup));

  SnapshotOptions options;
  options.directory = FreshDir("inherit");
  options.keep = 4;
  {
    SnapshotManager earlier(options);
    for (int epoch = 1; epoch <= 4; ++epoch) {
      ASSERT_TRUE(earlier.Save(trainer, epoch).ok());
    }
  }
  ASSERT_EQ(SnapshotManager(options).ListSnapshots().size(), 4u);

  options.keep = 2;
  SnapshotManager manager(options);
  const auto expect_newest = [&manager](int newest) {
    const std::vector<std::string> snapshots = manager.ListSnapshots();
    ASSERT_EQ(snapshots.size(), 2u);
    char name[32];
    std::snprintf(name, sizeof(name), "snap-%06d.fsnp", newest);
    EXPECT_NE(snapshots[0].find(name), std::string::npos) << snapshots[0];
    std::snprintf(name, sizeof(name), "snap-%06d.fsnp", newest - 1);
    EXPECT_NE(snapshots[1].find(name), std::string::npos) << snapshots[1];
  };
  ASSERT_TRUE(manager.Save(trainer, 5).ok());
  expect_newest(5);
  ASSERT_TRUE(manager.Save(trainer, 6).ok());
  ASSERT_TRUE(manager.Save(trainer, 6).ok());
  expect_newest(6);
  ASSERT_TRUE(manager.Save(trainer, 7).ok());
  expect_newest(7);
}

TEST(SnapshotManagerTest, SavedFileIsTheFramedTrainerState) {
  // Save frames the state in the buffer it serializes into; the file must
  // hold exactly the bytes FrameSnapshot gives for that state.
  const Workload w = MakeWorkload(SmallWorkloadConfig());
  fl::SchemeSetup setup = SmallFedMigr(w);
  setup.config.max_epochs = 2;
  fl::Trainer trainer = BuildTrainer(w, std::move(setup));
  trainer.Run();

  SnapshotOptions options;
  options.directory = FreshDir("framed_state");
  SnapshotManager manager(options);
  ASSERT_TRUE(manager.Save(trainer, 2).ok());
  const util::Result<std::vector<uint8_t>> file =
      util::ReadFileBytes(manager.ListSnapshots().front());
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(*file, FrameSnapshot(StateBytes(trainer)));
}

TEST(SnapshotManagerTest, CadenceSkipsOffEpochs) {
  const Workload w = MakeWorkload(SmallWorkloadConfig());
  fl::SchemeSetup setup = fl::MakeRandMigr(2);
  setup.config.max_epochs = 6;
  setup.config.seed = 9;
  fl::Trainer trainer = BuildTrainer(w, std::move(setup));

  SnapshotOptions options;
  options.directory = FreshDir("cadence");
  options.every_epochs = 3;
  options.keep = 10;
  SnapshotManager manager(options);
  for (int epoch = 1; epoch <= 6; ++epoch) {
    ASSERT_TRUE(manager.MaybeSave(trainer, epoch).ok());
  }
  EXPECT_EQ(manager.ListSnapshots().size(), 2u);  // epochs 3 and 6
}

TEST(SnapshotManagerTest, DisabledManagerIsANoOp) {
  const Workload w = MakeWorkload(SmallWorkloadConfig());
  fl::SchemeSetup setup = fl::MakeRandMigr(2);
  setup.config.max_epochs = 2;
  fl::Trainer trainer = BuildTrainer(w, std::move(setup));
  SnapshotManager manager(SnapshotOptions{});
  EXPECT_FALSE(manager.enabled());
  EXPECT_TRUE(manager.Save(trainer, 1).ok());
  EXPECT_TRUE(manager.ListSnapshots().empty());
  util::Result<int> resumed = manager.Resume(&trainer);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(*resumed, 0);
}

// --- Kill-and-resume determinism (headline) -------------------------------

TEST(KillAndResumeTest, DrlRunResumesBitIdenticallyAtMultipleKillPoints) {
  const Workload w = MakeWorkload(SmallWorkloadConfig());

  // Reference: uninterrupted.
  fl::Trainer reference = BuildTrainer(w, SmallFedMigr(w));
  const fl::RunResult ref_result = reference.Run();
  const std::vector<uint8_t> ref_bytes = StateBytes(reference);

  for (int kill_epoch : {2, 4}) {
    const std::string dir =
        FreshDir("kill" + std::to_string(kill_epoch));
    SnapshotOptions options;
    options.directory = dir;
    options.every_epochs = 1;
    options.keep = 2;

    // Killed run: snapshots every epoch, killed right after `kill_epoch`.
    {
      fl::Trainer killed = BuildTrainer(w, SmallFedMigr(w));
      SnapshotManager manager(options);
      killed.SetEpochHook(
          [&manager, kill_epoch](const fl::Trainer& t, int epoch) {
            EXPECT_TRUE(manager.MaybeSave(t, epoch).ok());
            return epoch < kill_epoch;
          });
      const fl::RunResult killed_result = killed.Run();
      EXPECT_TRUE(killed_result.interrupted);
      EXPECT_EQ(killed_result.epochs_run, kill_epoch);
    }

    // Restart: a fresh trainer resumes from the newest snapshot and runs
    // to completion.
    fl::Trainer resumed = BuildTrainer(w, SmallFedMigr(w));
    SnapshotManager manager(options);
    const util::Result<int> from = manager.Resume(&resumed);
    ASSERT_TRUE(from.ok());
    EXPECT_EQ(*from, kill_epoch);
    const fl::RunResult resumed_result = resumed.Run();
    EXPECT_FALSE(resumed_result.interrupted);

    // Byte-identical final state: models, optimizer moments, RNG streams,
    // replay buffer contents and priorities, fault counters, history.
    EXPECT_EQ(StateBytes(resumed), ref_bytes) << "kill at " << kill_epoch;
    ASSERT_EQ(resumed_result.history.size(), ref_result.history.size());
    for (size_t i = 0; i < ref_result.history.size(); ++i) {
      EXPECT_EQ(resumed_result.history[i].train_loss,
                ref_result.history[i].train_loss);
      EXPECT_EQ(resumed_result.history[i].test_accuracy,
                ref_result.history[i].test_accuracy);
      EXPECT_EQ(resumed_result.history[i].migrations,
                ref_result.history[i].migrations);
    }
    EXPECT_EQ(resumed_result.final_accuracy, ref_result.final_accuracy);
  }
}

TEST(KillAndResumeTest, TornNewestSnapshotFallsBackToLastGood) {
  const Workload w = MakeWorkload(SmallWorkloadConfig());

  fl::Trainer reference = BuildTrainer(w, SmallFedMigr(w));
  reference.Run();
  const std::vector<uint8_t> ref_bytes = StateBytes(reference);

  const std::string dir = FreshDir("torn");
  SnapshotOptions options;
  options.directory = dir;
  options.every_epochs = 1;
  options.keep = 3;

  {
    fl::Trainer killed = BuildTrainer(w, SmallFedMigr(w));
    SnapshotManager manager(options);
    killed.SetEpochHook([&manager](const fl::Trainer& t, int epoch) {
      EXPECT_TRUE(manager.MaybeSave(t, epoch).ok());
      return epoch < 4;
    });
    killed.Run();
  }

  // Damage the newest snapshot three ways across scenarios: truncate it
  // (torn write), and drop a stray .tmp plus an unparseable file next to
  // it — the resume path must skip all of them and restore epoch 3.
  const std::string newest = dir + "/snap-000004.fsnp";
  const util::Result<std::vector<uint8_t>> full =
      util::ReadFileBytes(newest);
  ASSERT_TRUE(full.ok());
  const std::vector<uint8_t> torn(full->begin(),
                                  full->begin() + full->size() / 3);
  ASSERT_TRUE(util::AtomicWriteFile(newest, torn).ok());
  ASSERT_TRUE(util::AtomicWriteFile(dir + "/snap-000005.fsnp.tmp",
                                    {1, 2, 3}).ok());
  ASSERT_TRUE(util::AtomicWriteFile(dir + "/snap-000099.fsnp",
                                    {0xDE, 0xAD}).ok());

  fl::Trainer resumed = BuildTrainer(w, SmallFedMigr(w));
  SnapshotManager manager(options);
  const util::Result<int> from = manager.Resume(&resumed);
  ASSERT_TRUE(from.ok());
  EXPECT_EQ(*from, 3);  // fell back past the torn epoch-4 file
  resumed.Run();
  EXPECT_EQ(StateBytes(resumed), ref_bytes);
}

TEST(KillAndResumeTest, SparseCadenceReplaysKilledEpochs) {
  // Cadence 3, killed after epoch 5: resume restores epoch 3 and re-runs
  // epochs 4-6; the replayed epochs must land on the same trajectory.
  const Workload w = MakeWorkload(SmallWorkloadConfig());

  fl::Trainer reference = BuildTrainer(w, SmallFedMigr(w));
  reference.Run();
  const std::vector<uint8_t> ref_bytes = StateBytes(reference);

  const std::string dir = FreshDir("sparse");
  SnapshotOptions options;
  options.directory = dir;
  options.every_epochs = 3;
  options.keep = 2;

  {
    fl::Trainer killed = BuildTrainer(w, SmallFedMigr(w));
    SnapshotManager manager(options);
    killed.SetEpochHook([&manager](const fl::Trainer& t, int epoch) {
      EXPECT_TRUE(manager.MaybeSave(t, epoch).ok());
      return epoch < 5;
    });
    killed.Run();
  }

  fl::Trainer resumed = BuildTrainer(w, SmallFedMigr(w));
  SnapshotManager manager(options);
  const util::Result<int> from = manager.Resume(&resumed);
  ASSERT_TRUE(from.ok());
  EXPECT_EQ(*from, 3);
  resumed.Run();
  EXPECT_EQ(StateBytes(resumed), ref_bytes);
}

TEST(KillAndResumeTest, SnapshotPayloadCorruptionFuzzNeverCrashesResume) {
  const Workload w = MakeWorkload(SmallWorkloadConfig());
  const std::string dir = FreshDir("fuzz");
  SnapshotOptions options;
  options.directory = dir;
  options.every_epochs = 2;
  options.keep = 1;
  auto cheap_setup = [&w]() {
    fl::SchemeSetup s = fl::MakeRandMigr(2);
    s.config.max_epochs = 6;
    s.config.seed = 55;
    return s;
  };

  {
    fl::Trainer killed = BuildTrainer(w, cheap_setup());
    SnapshotManager manager(options);
    killed.SetEpochHook([&manager](const fl::Trainer& t, int epoch) {
      EXPECT_TRUE(manager.MaybeSave(t, epoch).ok());
      return epoch < 2;
    });
    killed.Run();
  }
  const std::string path = dir + "/snap-000002.fsnp";
  const util::Result<std::vector<uint8_t>> full = util::ReadFileBytes(path);
  ASSERT_TRUE(full.ok());

  // Truncations and bit flips over the on-disk container: resume must skip
  // every damaged variant (falling back to a fresh start) without crashing,
  // hanging or loading silently. The victim trainer stays pristine, so one
  // instance serves every variant.
  fl::Trainer victim = BuildTrainer(w, cheap_setup());
  SnapshotManager manager(options);
  const size_t stride = std::max<size_t>(1, full->size() / 101);
  for (size_t cut = 0; cut < full->size(); cut += stride) {
    const std::vector<uint8_t> torn(full->begin(),
                                    full->begin() + static_cast<long>(cut));
    ASSERT_TRUE(util::AtomicWriteFile(path, torn).ok());
    const util::Result<int> from = manager.Resume(&victim);
    ASSERT_TRUE(from.ok());
    EXPECT_EQ(*from, 0) << "torn at " << cut << " resumed anyway";
  }
  for (size_t pos = 0; pos < full->size(); pos += stride) {
    std::vector<uint8_t> corrupt = *full;
    corrupt[pos] ^= 0x20;
    ASSERT_TRUE(util::AtomicWriteFile(path, corrupt).ok());
    const util::Result<int> from = manager.Resume(&victim);
    ASSERT_TRUE(from.ok());
    EXPECT_EQ(*from, 0) << "flip at " << pos << " resumed anyway";
  }
}

// --- RunScheme wiring -----------------------------------------------------

TEST(RunControlTest, DefaultControlMatchesPlainRunScheme) {
  const Workload w = MakeWorkload(SmallWorkloadConfig());
  auto setup = [&w]() {
    fl::SchemeSetup s = fl::MakeRandMigr(2);
    s.config.max_epochs = 4;
    s.config.eval_every = 2;
    s.config.seed = 31;
    return s;
  };
  const fl::RunResult plain = RunScheme(w, setup());
  const fl::RunResult controlled = RunScheme(w, setup(), RunControl{});
  ASSERT_EQ(plain.history.size(), controlled.history.size());
  for (size_t i = 0; i < plain.history.size(); ++i) {
    EXPECT_EQ(plain.history[i].train_loss, controlled.history[i].train_loss);
    EXPECT_EQ(plain.history[i].test_accuracy,
              controlled.history[i].test_accuracy);
  }
  EXPECT_EQ(plain.final_accuracy, controlled.final_accuracy);
}

TEST(RunControlTest, InterruptedRunSchemeResumesToSameTrajectory) {
  ClearInterrupt();
  const Workload w = MakeWorkload(SmallWorkloadConfig());
  auto setup = [&w]() {
    fl::SchemeSetup s = fl::MakeRandMigr(2);
    s.config.max_epochs = 5;
    s.config.eval_every = 2;
    s.config.seed = 33;
    return s;
  };
  const fl::RunResult reference = RunScheme(w, setup());

  RunControl control;
  control.snapshot.directory = FreshDir("runscheme");
  control.snapshot.every_epochs = 1;
  control.handle_signals = true;
  control.resume = true;

  // "Kill" at the first epoch boundary: the interrupt flag is already set
  // when the run starts, so the hook stops it after epoch 1 with a final
  // snapshot flushed.
  RequestInterrupt();
  const fl::RunResult interrupted = RunScheme(w, setup(), control);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.epochs_run, 1);
  ClearInterrupt();

  int resumed_from = -1;
  control.resumed_from_epoch = &resumed_from;
  const fl::RunResult resumed = RunScheme(w, setup(), control);
  EXPECT_EQ(resumed_from, 1);
  EXPECT_FALSE(resumed.interrupted);
  ASSERT_EQ(resumed.history.size(), reference.history.size());
  for (size_t i = 0; i < reference.history.size(); ++i) {
    EXPECT_EQ(resumed.history[i].train_loss,
              reference.history[i].train_loss);
    EXPECT_EQ(resumed.history[i].test_accuracy,
              reference.history[i].test_accuracy);
  }
  EXPECT_EQ(resumed.final_accuracy, reference.final_accuracy);
  EXPECT_EQ(resumed.traffic_gb, reference.traffic_gb);
}

}  // namespace
}  // namespace fedmigr::core
