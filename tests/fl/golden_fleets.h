// The small fleets and configs the trainer's frozen-behaviour pins share:
// TrainerGoldenTest pins what they charge the simulated network and clock,
// StateBytesPinTest pins the bytes of the state and journal they end in.

#ifndef FEDMIGR_TESTS_FL_GOLDEN_FLEETS_H_
#define FEDMIGR_TESTS_FL_GOLDEN_FLEETS_H_

#include <memory>
#include <utility>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/policies.h"
#include "fl/trainer.h"
#include "net/device.h"
#include "net/sim_topologies.h"
#include "net/topology.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::fl {

// The Fig. 3 fleet: 10 clients of the C10 simulation topology (3 LANs),
// LAN-shard non-IID data and the cross-LAN migration strategy.
struct Fig3Fleet {
  Fig3Fleet() : topology(net::MakeC10SimTopology()) {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 20;
    spec.test_per_class = 4;
    data = data::GenerateSynthetic(spec);
    util::Rng rng(3);
    partition =
        data::PartitionByLanShards(data.train, topology.config().lan_of, &rng);
    devices = net::MakeTestbedFleet(topology.num_clients());
  }

  static TrainerConfig MakeConfig() {
    TrainerConfig config;
    config.scheme_name = "crosslan";
    config.max_epochs = 12;
    config.agg_period = 5;
    config.eval_every = 6;
    config.batch_size = 8;
    config.seed = 5;
    return config;
  }

  // α-sample participation, dropouts and a quorum under link failures,
  // payload corruption and crashes.
  static TrainerConfig PartialUnderFaultsConfig() {
    TrainerConfig config = MakeConfig();
    config.client_fraction = 0.5;
    config.dropout_prob = 0.1;
    config.quorum_fraction = 0.6;
    config.fault.link_failure_prob = 0.5;
    config.fault.corruption_prob = 0.05;
    config.fault.crash_prob = 0.1;
    return config;
  }

  Trainer MakeTrainer(TrainerConfig config,
                      std::unique_ptr<MigrationPolicy> policy =
                          std::make_unique<LanConstrainedPolicy>(
                              /*cross_lan=*/true)) const {
    return Trainer(std::move(config), &data.train, partition, &data.test,
                   topology, devices,
                   [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                   std::move(policy));
  }

  RunResult Run(TrainerConfig config) const {
    Trainer trainer = MakeTrainer(std::move(config));
    return trainer.Run();
  }

  net::Topology topology;
  data::TrainTest data;
  data::Partition partition;
  std::vector<net::DeviceProfile> devices;
};

// The trainer_chaos_test fleet: K = 60 across 4 LANs, IID slices, random
// migration.
struct ChaosFleet {
  ChaosFleet() {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 30;
    spec.test_per_class = 5;
    data = data::GenerateSynthetic(spec);
    util::Rng rng(3);
    partition = data::PartitionIid(data.train, kClients, &rng);
    devices = net::MakeUniformFleet(kClients);
  }

  // A sampled cohort of 8 under a LAN partition, a server outage, churn
  // and a quorum watchdog.
  static TrainerConfig CohortOfEightConfig() {
    TrainerConfig config;
    config.scheme_name = "chaos-test";
    config.max_epochs = 6;
    config.agg_period = 2;
    config.cohort_size = 8;
    config.eval_every = 2;
    config.batch_size = 8;
    config.seed = 99;
    config.fault.chaos.partitions.push_back({/*lan=*/1, /*start_epoch=*/2,
                                             /*duration_epochs=*/3});
    config.fault.chaos.outages.push_back({/*start_epoch=*/6,
                                          /*duration_epochs=*/1});
    config.fault.chaos.churn_rate = 0.25;
    config.quorum_fraction = 0.5;
    return config;
  }

  // The same partition/outage/churn/quorum script on a cohort of 30, with
  // every other counted mechanism switched on: link failures with one retry
  // and the server fallback, jitter, an upload deadline, corruption,
  // crashes, stragglers, a Gaussian-noise attack, and the full screen with
  // reputation and a one-round quarantine.
  static TrainerConfig EveryCounterConfig() {
    TrainerConfig config = CohortOfEightConfig();
    config.max_epochs = 16;
    config.cohort_size = 30;
    config.fault.link_failure_prob = 0.3;
    config.fault.max_retries = 1;
    config.fault.bandwidth_jitter = 0.5;
    config.fault.upload_deadline_s = 3.5;
    config.fault.corruption_prob = 0.1;
    config.fault.crash_prob = 0.01;
    config.fault.straggler_prob = 0.2;
    config.fault.attack_mode = net::AttackMode::kGaussianNoise;
    config.fault.attack_fraction = 0.2;
    config.fault.attack_scale = 0.5;
    config.robust.screening.clip_norm = 2.0;
    config.robust.screening.norm_reject_factor = 1.5;
    config.robust.screening.cosine_reject_below = 0.5;
    config.robust.reputation.enabled = true;
    config.robust.reputation.patience = 1;
    config.robust.reputation.quarantine_rounds = 1;
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

  RunResult Run(TrainerConfig config) const {
    Trainer trainer = MakeTrainer(std::move(config));
    return trainer.Run();
  }

  static constexpr int kClients = 60;
  data::TrainTest data;
  data::Partition partition;
  std::vector<net::DeviceProfile> devices;
};

}  // namespace fedmigr::fl

#endif  // FEDMIGR_TESTS_FL_GOLDEN_FLEETS_H_
