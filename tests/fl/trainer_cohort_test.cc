// Cohort-scheduled trainer: determinism (including across thread counts),
// lazy materialization, aggregate aliasing, and snapshot/resume in cohort
// mode (the kill-anywhere contract of PR 3 extended to the sharded
// simulator).

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/policies.h"
#include "fl/trainer.h"
#include "net/topology.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::fl {
namespace {

// A fleet big enough that cohorts matter (K = 60, C = 8) but small enough
// for seconds-scale tests.
struct CohortWorkload {
  CohortWorkload() {
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
    config.scheme_name = "cohort-test";
    config.max_epochs = 6;
    config.agg_period = 2;  // one migration epoch per round
    config.cohort_size = cohort_size;
    config.eval_every = 2;
    config.batch_size = 8;
    config.fedprox_mu = 0.01;  // exercise the shared proximal reference
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

TEST(TrainerCohortTest, RunIsReproducible) {
  CohortWorkload w;
  Trainer a = w.MakeTrainer(w.MakeConfig(8));
  Trainer b = w.MakeTrainer(w.MakeConfig(8));
  const RunResult ra = a.Run();
  const RunResult rb = b.Run();
  EXPECT_EQ(StateBytes(a), StateBytes(b));
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].train_loss, rb.history[i].train_loss);
  }
}

TEST(TrainerCohortTest, ThreadCountDoesNotChangeTheTrajectory) {
  CohortWorkload w;
  TrainerConfig single = w.MakeConfig(8);
  single.num_threads = 1;
  TrainerConfig parallel = w.MakeConfig(8);
  parallel.num_threads = 4;

  Trainer a = w.MakeTrainer(std::move(single));
  Trainer b = w.MakeTrainer(std::move(parallel));
  const RunResult ra = a.Run();
  const RunResult rb = b.Run();
  EXPECT_EQ(StateBytes(a), StateBytes(b));
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
  EXPECT_EQ(ra.time_s, rb.time_s);
}

TEST(TrainerCohortTest, OnlyCohortMembersMaterialize) {
  CohortWorkload w;
  Trainer trainer = w.MakeTrainer(w.MakeConfig(8));
  EXPECT_EQ(trainer.num_materialized_clients(), 0);
  trainer.Run();

  // 6 epochs / agg_period 2 = rounds 0..2: at most 3 * 8 distinct members.
  EXPECT_GT(trainer.num_materialized_clients(), 0);
  EXPECT_LE(trainer.num_materialized_clients(), 24);
  EXPECT_LT(trainer.num_materialized_clients(), CohortWorkload::kClients);
}

// Every retired member that holds its block alone has no gradients; every
// current member that trained on a private block keeps them.
void ExpectRetiredOwnersReleased(const Trainer& trainer) {
  const std::vector<int>& cohort = trainer.cohort();
  int retired_owners = 0;
  int trained_members = 0;
  for (int i = 0; i < CohortWorkload::kClients; ++i) {
    const Client* client = trainer.materialized_client(i);
    if (client == nullptr || !client->has_model()) continue;
    const std::vector<const nn::Tensor*> grads = client->model().Grads();
    if (std::binary_search(cohort.begin(), cohort.end(), i)) {
      // The current round trained it on a private block it still holds.
      if (client->owns_model()) {
        ++trained_members;
        for (const nn::Tensor* g : grads) EXPECT_FALSE(g->empty()) << i;
      }
      continue;
    }
    // model_ref() adds one holder of its own.
    if (!client->owns_model() || client->model_ref().use_count() != 2) {
      continue;
    }
    ++retired_owners;
    for (const nn::Tensor* g : grads) EXPECT_TRUE(g->empty()) << i;
  }
  EXPECT_GT(retired_owners, 0);
  EXPECT_GT(trained_members, 0);
}

TEST(TrainerCohortTest, RetiredMembersHoldNoGradients) {
  // A member that left its cohort keeps its parameters, momentum and RNG;
  // its gradient buffers and forward caches are released when it retires,
  // unless its block is shared (the aggregate, a migration capture).
  CohortWorkload w;
  TrainerConfig config = w.MakeConfig(8);
  config.max_epochs = 8;  // four rounds
  Trainer trainer = w.MakeTrainer(config);
  trainer.Run();
  ExpectRetiredOwnersReleased(trainer);

  // A resumed trainer restores every private block with gradients; the
  // retired members release them again on load, and the state is the same.
  Trainer resumed = w.MakeTrainer(config);
  const std::vector<uint8_t> saved = StateBytes(trainer);
  util::ByteReader reader(saved);
  ASSERT_TRUE(resumed.LoadState(&reader).ok());
  ExpectRetiredOwnersReleased(resumed);
  EXPECT_EQ(StateBytes(resumed), saved);
}

TEST(TrainerCohortTest, ProvenanceRecordsOnlyForMaterializedClients) {
  // A million-client fleet: construction keeps no per-client provenance,
  // and a run with churn holds one record per client it ever materialized
  // (a departed client keeps its zero-filled record), as does a trainer
  // resumed from its snapshot.
  constexpr int kFleet = 1'000'000;
  data::SyntheticSpec spec = data::C10Spec();
  spec.train_per_class = 10;
  spec.test_per_class = 5;
  const data::TrainTest data = data::GenerateSynthetic(spec);
  const auto make_trainer = [&data](const TrainerConfig& config) {
    data::Partition partition(static_cast<size_t>(kFleet));
    for (int i = 0; i < kFleet; ++i) {
      partition[static_cast<size_t>(i)] = {i % data.train.size()};
    }
    net::TopologyConfig tc;
    tc.lan_of = net::EvenLanAssignment(kFleet, kFleet / 1000);
    return Trainer(config, &data.train, std::move(partition), &data.test,
                   net::Topology(std::move(tc)),
                   net::MakeUniformFleet(kFleet),
                   [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                   std::make_unique<RandomMigrationPolicy>());
  };
  TrainerConfig config;
  config.scheme_name = "cohort-provenance";
  config.max_epochs = 8;
  config.agg_period = 2;
  config.cohort_size = 8;
  config.eval_every = 8;
  config.batch_size = 1;
  config.seed = 5;
  config.fault.chaos.churn_rate = 0.3;

  Trainer trainer = make_trainer(config);
  EXPECT_EQ(trainer.num_provenance_records(), 0u);
  std::set<int> materialized;
  trainer.SetEpochHook([&materialized](const Trainer& t, int) {
    materialized.insert(t.cohort().begin(), t.cohort().end());
    return true;
  });
  const RunResult result = trainer.Run();
  EXPECT_GT(result.chaos.churn_departures, 0);
  EXPECT_EQ(trainer.num_provenance_records(), materialized.size());
  EXPECT_LT(trainer.num_materialized_clients(),
            static_cast<int>(materialized.size()));

  Trainer resumed = make_trainer(config);
  const std::vector<uint8_t> saved = StateBytes(trainer);
  util::ByteReader reader(saved);
  ASSERT_TRUE(resumed.LoadState(&reader).ok());
  EXPECT_EQ(resumed.num_provenance_records(), materialized.size());
  EXPECT_EQ(StateBytes(resumed), saved);
}

TEST(TrainerCohortTest, CohortMembersAreTheActiveSet) {
  CohortWorkload w;
  TrainerConfig config = w.MakeConfig(8);
  config.max_epochs = 2;
  Trainer trainer = w.MakeTrainer(std::move(config));
  trainer.Run();
  const std::vector<int>& cohort = trainer.cohort();
  ASSERT_EQ(cohort.size(), 8u);
  std::set<int> unique(cohort.begin(), cohort.end());
  EXPECT_EQ(unique.size(), cohort.size());
  EXPECT_GE(cohort.front(), 0);
  EXPECT_LT(cohort.back(), CohortWorkload::kClients);
}

TEST(TrainerCohortTest, LegacyModeAliasesEveryIdleClientToTheAggregate) {
  CohortWorkload w;
  TrainerConfig config = w.MakeConfig(/*cohort_size=*/0);
  config.fedprox_mu = 0.0;
  config.max_epochs = 4;  // ends on an aggregation epoch (period 2)
  Trainer trainer = w.MakeTrainer(std::move(config));

  // Full participation: everyone is materialized up front, and after the
  // construction-time Model Distribution all K replicas alias the one
  // published block (store + K holders).
  EXPECT_EQ(trainer.num_materialized_clients(), CohortWorkload::kClients);
  EXPECT_EQ(trainer.aggregate_aliases(), CohortWorkload::kClients + 1);

  trainer.Run();
  // The run ends right after an aggregation round's distribution: all
  // replicas are back on the (new) shared block.
  EXPECT_EQ(trainer.aggregate_aliases(), CohortWorkload::kClients + 1);
}

TEST(TrainerCohortTest, ResumedCohortRunIsBitIdentical) {
  CohortWorkload w;
  for (int kill_epoch : {1, 2, 3, 5}) {
    Trainer reference = w.MakeTrainer(w.MakeConfig(8));
    const RunResult ref_result = reference.Run();
    EXPECT_FALSE(ref_result.interrupted);
    const std::vector<uint8_t> ref_bytes = StateBytes(reference);

    Trainer killed = w.MakeTrainer(w.MakeConfig(8));
    killed.SetEpochHook([kill_epoch](const Trainer&, int epoch) {
      return epoch < kill_epoch;
    });
    const RunResult killed_result = killed.Run();
    EXPECT_TRUE(killed_result.interrupted);
    const std::vector<uint8_t> mid_bytes = StateBytes(killed);

    Trainer resumed = w.MakeTrainer(w.MakeConfig(8));
    util::ByteReader reader(mid_bytes);
    ASSERT_TRUE(resumed.LoadState(&reader).ok()) << "kill at " << kill_epoch;
    EXPECT_TRUE(reader.AtEnd());
    const RunResult resumed_result = resumed.Run();
    EXPECT_FALSE(resumed_result.interrupted);

    EXPECT_EQ(StateBytes(resumed), ref_bytes) << "kill at " << kill_epoch;
    ASSERT_EQ(resumed_result.history.size(), ref_result.history.size());
    for (size_t i = 0; i < ref_result.history.size(); ++i) {
      EXPECT_EQ(resumed_result.history[i].train_loss,
                ref_result.history[i].train_loss);
    }
    EXPECT_EQ(resumed_result.final_accuracy, ref_result.final_accuracy);
    EXPECT_EQ(resumed_result.time_s, ref_result.time_s);
  }
}

TEST(TrainerCohortTest, SnapshotElidesAliasedModels) {
  // With every replica aliasing the published aggregate, the v3 snapshot
  // stores the model parameters once — not once per client. The bound: a
  // 60-client legacy snapshot (all aliased at construction, and again
  // after the final aggregation's distribution) stays under three model
  // payloads, where the pre-CoW layout paid K + 1 of them.
  CohortWorkload w;
  util::Rng model_rng(1);
  const size_t payload = nn::SerializeParams(nn::MakeC10Net(&model_rng)).size();

  TrainerConfig legacy_config = w.MakeConfig(0);
  legacy_config.fedprox_mu = 0.0;
  Trainer legacy = w.MakeTrainer(std::move(legacy_config));
  const size_t at_construction = StateBytes(legacy).size();
  EXPECT_LT(at_construction, 3 * payload)
      << "payload=" << payload << " snapshot=" << at_construction;

  legacy.Run();  // max_epochs 6 ends on an aggregation epoch (period 2)
  const size_t after_run = StateBytes(legacy).size();
  EXPECT_LT(after_run, 3 * payload)
      << "payload=" << payload << " snapshot=" << after_run;

  // Lazy clients cost one byte each: a cohort trainer's snapshot before any
  // round is the aggregate plus noise.
  Trainer cohort = w.MakeTrainer(w.MakeConfig(8));
  EXPECT_LT(StateBytes(cohort).size(), 2 * payload);
}

TEST(TrainerCohortTest, CohortSizeIsPartOfTheSnapshotFingerprint) {
  CohortWorkload w;
  Trainer a = w.MakeTrainer(w.MakeConfig(8));
  a.Run();
  const std::vector<uint8_t> bytes = StateBytes(a);

  Trainer other = w.MakeTrainer(w.MakeConfig(12));
  util::ByteReader reader(bytes);
  EXPECT_FALSE(other.LoadState(&reader).ok());
}

}  // namespace
}  // namespace fedmigr::fl
