// Infrastructure chaos in the synchronous trainer: zero-chaos byte
// identity, atomic migration rollback under sealed partitions, the
// round-progress watchdog (quorum misses, carryover), fleet churn at small
// and large K (including departure counting), the journal-vs-counters
// ledger reconciliation, and the kill-anywhere resume contract under fire.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/cohort.h"
#include "fl/policies.h"
#include "fl/trainer.h"
#include "net/fault.h"
#include "net/topology.h"
#include "nn/zoo.h"
#include "obs/journal.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::fl {
namespace {

// Same fleet as the cohort suite: K = 60 across 4 LANs, seconds-scale runs.
struct ChaosWorkload {
  ChaosWorkload() {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 30;
    spec.test_per_class = 5;
    data = data::GenerateSynthetic(spec);
    util::Rng rng(3);
    partition = data::PartitionIid(data.train, kClients, &rng);
    devices = net::MakeUniformFleet(kClients);
  }

  TrainerConfig MakeConfig(int cohort_size) const {
    TrainerConfig config;
    config.scheme_name = "chaos-test";
    config.max_epochs = 6;
    config.agg_period = 2;
    config.cohort_size = cohort_size;
    config.eval_every = 2;
    config.batch_size = 8;
    config.seed = 99;
    return config;
  }

  Trainer MakeTrainer(TrainerConfig config) const {
    net::TopologyConfig tc;
    tc.lan_of = net::EvenLanAssignment(kClients, 4);
    return Trainer(std::move(config), &data.train, partition, &data.test,
                   net::Topology(std::move(tc)), devices,
                   [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                   std::make_unique<RandomMigrationPolicy>());
  }

  static constexpr int kClients = 60;
  data::TrainTest data;
  data::Partition partition;
  std::vector<net::DeviceProfile> devices;
};

std::vector<uint8_t> StateBytes(const Trainer& trainer) {
  util::ByteWriter writer;
  trainer.SaveState(&writer);
  return writer.TakeBytes();
}

// A chaos script that exercises everything at once: a partition sealing
// LAN 1 across rounds 1-2, an aggregation-epoch outage, 25% churn, and the
// watchdog armed at half the cohort.
TrainerConfig WithChaos(TrainerConfig config) {
  config.fault.chaos.partitions.push_back({/*lan=*/1, /*start_epoch=*/2,
                                           /*duration_epochs=*/3});
  config.fault.chaos.outages.push_back({/*start_epoch=*/6,
                                        /*duration_epochs=*/1});
  config.fault.chaos.churn_rate = 0.25;
  config.quorum_fraction = 0.5;
  return config;
}

TEST(TrainerChaosTest, ZeroedChaosIsByteIdenticalToTheLegacyPath) {
  // A config whose ChaosConfig holds no windows and zero churn keeps the
  // injector disabled: the run is bit-for-bit the pre-chaos trajectory.
  ChaosWorkload w;
  TrainerConfig plain = w.MakeConfig(8);
  TrainerConfig zeroed = w.MakeConfig(8);
  zeroed.fault.chaos = net::ChaosConfig{};
  ASSERT_FALSE(zeroed.fault.enabled());

  Trainer a = w.MakeTrainer(std::move(plain));
  Trainer b = w.MakeTrainer(std::move(zeroed));
  const RunResult ra = a.Run();
  const RunResult rb = b.Run();
  EXPECT_EQ(StateBytes(a), StateBytes(b));
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
  // The ledger still covers fault-free migrations: everything planned is
  // delivered directly, nothing rolls back, and the watchdog never arms.
  EXPECT_EQ(ra.chaos.migrations_planned, ra.chaos.migrations_completed);
  EXPECT_EQ(ra.chaos.migrations_rolled_back, 0);
  EXPECT_EQ(ra.chaos.quorum_commits, 0);
  EXPECT_EQ(ra.chaos.quorum_misses, 0);
}

TEST(TrainerChaosTest, MigrationRollbackKeepsTheLedgerWhole) {
  // Seal one LAN for the whole run: every migration crossing its boundary
  // fails (the server fallback is sealed too), and each one must be rolled
  // back to its source. The trainer CHECK-fails on an orphaned lineage, so
  // a completed run plus a reconciled ledger is the atomicity proof.
  ChaosWorkload w;
  TrainerConfig config = w.MakeConfig(10);
  config.fault.chaos.partitions.push_back({/*lan=*/1, /*start_epoch=*/1,
                                           /*duration_epochs=*/100});
  Trainer trainer = w.MakeTrainer(std::move(config));
  const RunResult result = trainer.Run();

  EXPECT_GT(result.chaos.migrations_planned, 0);
  EXPECT_GT(result.chaos.migrations_rolled_back, 0);
  EXPECT_EQ(result.chaos.migrations_planned,
            result.chaos.migrations_completed +
                result.chaos.migration_fallbacks +
                result.chaos.migrations_rolled_back);
  EXPECT_GT(result.faults.partitioned_transfers, 0);
}

TEST(TrainerChaosTest, WatchdogSkipsRoundsWithoutQuorum) {
  // Seal three of the four LANs across the whole run with the watchdog at
  // 0.9: only ~a quarter of each cohort can reach the server, so every
  // aggregation misses quorum; the survivors are carried into the next
  // round.
  ChaosWorkload w;
  TrainerConfig config = w.MakeConfig(8);
  config.quorum_fraction = 0.9;
  for (int lan : {1, 2, 3}) {
    config.fault.chaos.partitions.push_back({lan, /*start_epoch=*/1,
                                             /*duration_epochs=*/100});
  }
  Trainer trainer = w.MakeTrainer(std::move(config));
  const RunResult result = trainer.Run();

  EXPECT_GT(result.chaos.quorum_misses, 0);
  EXPECT_EQ(result.chaos.quorum_commits, 0);
  EXPECT_GT(result.chaos.carryover_clients, 0);

  // The same storm with the watchdog disarmed commits every round and
  // carries nothing.
  TrainerConfig unguarded = w.MakeConfig(8);
  for (int lan : {1, 2, 3}) {
    unguarded.fault.chaos.partitions.push_back({lan, 1, 100});
  }
  Trainer baseline = w.MakeTrainer(std::move(unguarded));
  const RunResult base = baseline.Run();
  EXPECT_EQ(base.chaos.quorum_misses, 0);
  EXPECT_EQ(base.chaos.quorum_commits, 0);
  EXPECT_EQ(base.chaos.carryover_clients, 0);
}

TEST(TrainerChaosTest, ChurnIsDeterministicAndCounted) {
  ChaosWorkload w;
  TrainerConfig config = w.MakeConfig(10);
  config.fault.chaos.churn_rate = 0.3;
  Trainer a = w.MakeTrainer(config);
  Trainer b = w.MakeTrainer(config);
  const RunResult ra = a.Run();
  const RunResult rb = b.Run();
  EXPECT_EQ(StateBytes(a), StateBytes(b));
  EXPECT_GT(ra.chaos.churn_absences, 0);
  EXPECT_EQ(ra.chaos.churn_absences, rb.chaos.churn_absences);
  EXPECT_EQ(ra.chaos.churn_departures, rb.chaos.churn_departures);
}

TEST(TrainerChaosTest, ChurnDeparturesCountOnlyRosterMembers) {
  // A departure at round r is a member of round r-1's effective roster (its
  // sample minus the members churned out at r-1) that churns out at r. A
  // cohort of 2 at 50% churn leaves some rosters empty; the round after one
  // must count no departures, since nobody was there to leave.
  ChaosWorkload w;
  TrainerConfig config = w.MakeConfig(/*cohort_size=*/2);
  config.fault.chaos.churn_rate = 0.5;
  config.max_epochs = 80;
  config.eval_every = 0;

  const CohortSampler sampler(config.seed, ChaosWorkload::kClients,
                              config.cohort_size);
  const net::FaultInjector churn(config.fault);
  const int rounds = config.max_epochs / config.agg_period;
  int64_t expected = 0;
  int empty_rosters = 0;
  for (int round = 1; round < rounds; ++round) {
    int roster = 0;
    for (int i : sampler.Sample(round - 1)) {
      if (churn.ChurnedOut(i, round - 1)) continue;
      ++roster;
      if (churn.ChurnedOut(i, round)) ++expected;
    }
    if (roster == 0) ++empty_rosters;
  }
  ASSERT_GT(empty_rosters, 0);

  Trainer trainer = w.MakeTrainer(std::move(config));
  const RunResult result = trainer.Run();
  EXPECT_EQ(result.chaos.churn_departures, expected);
}

TEST(TrainerChaosTest, ChurnRequiresCohortMode) {
  ChaosWorkload w;
  TrainerConfig config = w.MakeConfig(/*cohort_size=*/0);
  config.fault.chaos.churn_rate = 0.1;
  EXPECT_DEATH(w.MakeTrainer(std::move(config)), "cohort");
}

TEST(TrainerChaosTest, FullChaosRunIsReproducible) {
  ChaosWorkload w;
  Trainer a = w.MakeTrainer(WithChaos(w.MakeConfig(8)));
  Trainer b = w.MakeTrainer(WithChaos(w.MakeConfig(8)));
  const RunResult ra = a.Run();
  const RunResult rb = b.Run();
  EXPECT_EQ(StateBytes(a), StateBytes(b));
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].train_loss, rb.history[i].train_loss);
  }
}

TEST(TrainerChaosTest, JournalLedgerReconcilesWithTheCounters) {
  // The flight recorder and the chaos counters are two records of one run:
  // every ledger total the journal derives from its events must equal the
  // matching ChaosCounters field. Link failures on top of the chaos script
  // send moves through the server fallback and roll others back.
  ChaosWorkload w;
  TrainerConfig config = WithChaos(w.MakeConfig(8));
  config.fault.link_failure_prob = 0.3;
  config.fault.max_retries = 0;
  obs::Journal journal(obs::Journal::Options{});
  ASSERT_TRUE(journal.Attach(0).ok());
  Trainer trainer = w.MakeTrainer(std::move(config));
  trainer.SetJournal(&journal);
  const RunResult result = trainer.Run();

  const obs::JournalSummary& journaled = journal.running_summary();
  const ChaosCounters& c = result.chaos;
  EXPECT_EQ(journaled.migrations_planned, c.migrations_planned);
  EXPECT_EQ(journaled.migrations_completed, c.migrations_completed);
  EXPECT_EQ(journaled.migration_fallbacks, c.migration_fallbacks);
  EXPECT_EQ(journaled.migrations_rolled_back, c.migrations_rolled_back);
  EXPECT_EQ(journaled.quorum_commits, c.quorum_commits);
  EXPECT_EQ(journaled.quorum_misses, c.quorum_misses);
  EXPECT_EQ(journaled.carryover_clients, c.carryover_clients);
  EXPECT_EQ(journaled.churn_absences, c.churn_absences);
  EXPECT_EQ(journaled.churn_departures, c.churn_departures);
  EXPECT_EQ(c.migrations_planned, c.migrations_completed +
                                      c.migration_fallbacks +
                                      c.migrations_rolled_back);
  EXPECT_GT(c.migration_fallbacks, 0);
  EXPECT_GT(c.migrations_rolled_back, 0);
}

TEST(TrainerChaosTest, CorruptMoveFromAModellessSourceIsSkipped) {
  // An outage on epoch 1 loses every first-round download, so the cohort
  // starts without models; epoch 1 still migrates, and with corruption
  // certain every delivered move arrives corrupted. The checksum verdict
  // must not read the absent model; the move is simply not installed.
  ChaosWorkload w;
  TrainerConfig config = w.MakeConfig(8);
  config.max_epochs = 2;
  config.fault.chaos.outages.push_back({/*start_epoch=*/1,
                                        /*duration_epochs=*/1});
  config.fault.corruption_prob = 1.0;
  Trainer trainer = w.MakeTrainer(std::move(config));
  const RunResult result = trainer.Run();
  EXPECT_GT(result.faults.outage_transfers, 0);
  EXPECT_GT(result.faults.corrupted, 0);
  EXPECT_EQ(result.chaos.migrations_planned, 0);
}

TEST(TrainerChaosTest, ResumeUnderFireIsBitIdentical) {
  // Kill-anywhere, chaos edition: kills land inside the partition window
  // (epochs 2-4), on the outage epoch (6) and mid-churn; the resumed run
  // must replay the identical trajectory, including the chaos schedule
  // position and every chaos counter.
  ChaosWorkload w;
  for (int kill_epoch : {1, 2, 3, 5}) {
    Trainer reference = w.MakeTrainer(WithChaos(w.MakeConfig(8)));
    const RunResult ref_result = reference.Run();
    EXPECT_FALSE(ref_result.interrupted);
    const std::vector<uint8_t> ref_bytes = StateBytes(reference);

    Trainer killed = w.MakeTrainer(WithChaos(w.MakeConfig(8)));
    killed.SetEpochHook([kill_epoch](const Trainer&, int epoch) {
      return epoch < kill_epoch;
    });
    const RunResult killed_result = killed.Run();
    EXPECT_TRUE(killed_result.interrupted);
    const std::vector<uint8_t> mid_bytes = StateBytes(killed);

    Trainer resumed = w.MakeTrainer(WithChaos(w.MakeConfig(8)));
    util::ByteReader reader(mid_bytes);
    ASSERT_TRUE(resumed.LoadState(&reader).ok()) << "kill at " << kill_epoch;
    EXPECT_TRUE(reader.AtEnd());
    const RunResult resumed_result = resumed.Run();
    EXPECT_FALSE(resumed_result.interrupted);

    EXPECT_EQ(StateBytes(resumed), ref_bytes) << "kill at " << kill_epoch;
    EXPECT_EQ(resumed_result.final_accuracy, ref_result.final_accuracy);
    EXPECT_EQ(resumed_result.time_s, ref_result.time_s);
    EXPECT_EQ(resumed_result.chaos.quorum_misses +
                  killed_result.chaos.quorum_misses,
              ref_result.chaos.quorum_misses);
  }
}

TEST(TrainerChaosTest, ChaosScheduleIsPartOfTheSnapshotFingerprint) {
  ChaosWorkload w;
  Trainer a = w.MakeTrainer(WithChaos(w.MakeConfig(8)));
  a.Run();
  const std::vector<uint8_t> bytes = StateBytes(a);

  // Same trainer shape, different chaos script: the snapshot must refuse.
  TrainerConfig other = WithChaos(w.MakeConfig(8));
  other.fault.chaos.churn_rate = 0.35;
  Trainer different_churn = w.MakeTrainer(std::move(other));
  util::ByteReader churn_reader(bytes);
  EXPECT_FALSE(different_churn.LoadState(&churn_reader).ok());

  TrainerConfig shifted = WithChaos(w.MakeConfig(8));
  shifted.fault.chaos.partitions[0].start_epoch = 3;
  Trainer different_window = w.MakeTrainer(std::move(shifted));
  util::ByteReader window_reader(bytes);
  EXPECT_FALSE(different_window.LoadState(&window_reader).ok());

  // Different quorum: also refused.
  TrainerConfig requorumed = WithChaos(w.MakeConfig(8));
  requorumed.quorum_fraction = 0.25;
  Trainer different_quorum = w.MakeTrainer(std::move(requorumed));
  util::ByteReader quorum_reader(bytes);
  EXPECT_FALSE(different_quorum.LoadState(&quorum_reader).ok());
}

// --- Fleet scale ------------------------------------------------------------

// bench_fig6-style synthetic fleet: one shared dataset, every client an
// 8-sample wrapped slice, K >= 1e5 with only the cohort materialized.
struct BigFleet {
  explicit BigFleet(int k) : clients(k) {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 30;
    spec.test_per_class = 2;
    data = data::GenerateSynthetic(spec);
    const int n = data.train.size();
    const int samples_per_client = 8;
    partition.resize(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      auto& slice = partition[static_cast<size_t>(i)];
      slice.reserve(samples_per_client);
      for (int j = 0; j < samples_per_client; ++j) {
        slice.push_back(static_cast<int>(
            (static_cast<int64_t>(i) * samples_per_client + j) % n));
      }
    }
  }

  Trainer MakeTrainer(TrainerConfig config) const {
    net::TopologyConfig tc;
    tc.lan_of = net::EvenLanAssignment(clients, std::max(1, clients / 1000));
    return Trainer(std::move(config), &data.train, partition, &data.test,
                   net::Topology(std::move(tc)),
                   net::MakeUniformFleet(clients),
                   [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                   std::make_unique<RandomMigrationPolicy>());
  }

  int clients;
  data::TrainTest data;
  data::Partition partition;
};

// The snapshot holds the clients that exist, not the fleet: two cohort
// trainers that differ only in fleet size save streams of one size, fresh
// and after a round.
TEST(TrainerChaosScaleTest, SnapshotSizeDoesNotGrowWithTheFleet) {
  TrainerConfig config;
  config.scheme_name = "fleet-size-test";
  config.max_epochs = 1;
  config.agg_period = 1;
  config.cohort_size = 100;
  config.eval_every = 0;
  config.batch_size = 8;
  config.seed = 11;
  const BigFleet small(10000);
  const BigFleet large(100000);
  Trainer a = small.MakeTrainer(config);
  Trainer b = large.MakeTrainer(config);
  EXPECT_EQ(StateBytes(a).size(), StateBytes(b).size());
  a.Run();
  b.Run();
  EXPECT_EQ(a.num_materialized_clients(), 100);
  EXPECT_EQ(b.num_materialized_clients(), 100);
  EXPECT_EQ(StateBytes(a).size(), StateBytes(b).size());
}

TEST(TrainerChaosScaleTest, ResumeUnderChurnAtFleetScale) {
  // K = 1e5, cohort 100: churned-out members that never materialized retire
  // in O(1) (no eviction work), joins mint from the aggregate, and a kill
  // mid-churn resumes bit-identically.
  constexpr int kFleet = 100000;
  BigFleet fleet(kFleet);

  TrainerConfig config;
  config.scheme_name = "chaos-scale-test";
  config.max_epochs = 4;
  config.agg_period = 2;
  config.cohort_size = 100;
  config.eval_every = 0;
  config.batch_size = 8;
  config.seed = 11;
  config.quorum_fraction = 0.5;
  config.fault.chaos.churn_rate = 0.2;
  config.fault.chaos.partitions.push_back({/*lan=*/0, /*start_epoch=*/2,
                                           /*duration_epochs=*/2});

  Trainer reference = fleet.MakeTrainer(config);
  const RunResult ref_result = reference.Run();
  EXPECT_FALSE(ref_result.interrupted);
  EXPECT_GT(ref_result.chaos.churn_absences, 0);
  // Only cohort members (plus carryover survivors) ever materialize.
  EXPECT_LE(reference.num_materialized_clients(), 3 * 100);
  const std::vector<uint8_t> ref_bytes = StateBytes(reference);

  Trainer killed = fleet.MakeTrainer(config);
  killed.SetEpochHook(
      [](const Trainer&, int epoch) { return epoch < 2; });
  const RunResult killed_result = killed.Run();
  EXPECT_TRUE(killed_result.interrupted);
  const std::vector<uint8_t> mid_bytes = StateBytes(killed);

  Trainer resumed = fleet.MakeTrainer(config);
  util::ByteReader reader(mid_bytes);
  ASSERT_TRUE(resumed.LoadState(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  const RunResult resumed_result = resumed.Run();
  EXPECT_FALSE(resumed_result.interrupted);
  EXPECT_EQ(StateBytes(resumed), ref_bytes);
  EXPECT_EQ(resumed_result.time_s, ref_result.time_s);
}

}  // namespace
}  // namespace fedmigr::fl
