// Trainer-level telemetry: a short run populates the phase histograms and
// the fl/net counters, every registry counter of a run fact grows by exactly
// the matching per-run struct field, and the byte-for-byte run outputs
// (history, traffic, faults) are identical with telemetry enabled and
// disabled.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/schemes.h"
#include "fl/trainer.h"
#include "golden_fleets.h"
#include "net/sim_topologies.h"
#include "nn/zoo.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
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

  RunResult Run(const std::string& scheme, int epochs) {
    SchemeSetup setup =
        scheme == "randmigr" ? MakeRandMigr(/*agg_period=*/2) : MakeFedAvg();
    setup.config.max_epochs = epochs;
    setup.config.eval_every = 2;
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

TEST(TrainerTelemetryTest, RunPopulatesPhaseHistogramsAndCounters) {
  TinyWorkload w;
  const obs::MetricsSnapshot before = obs::Registry::Default().Snapshot();
  const RunResult result = w.Run("randmigr", 4);

  // RunResult carries the snapshot taken as Run() returned.
  EXPECT_FALSE(result.metrics.counters.empty());
  EXPECT_EQ(result.metrics.CounterValue("fl/epochs_run") -
                before.CounterValue("fl/epochs_run"),
            4);
  EXPECT_GT(result.metrics.CounterValue("fl/aggregations"),
            before.CounterValue("fl/aggregations"));

  // The registry's traffic series agree with the per-run accountant (the
  // registry is process-cumulative, so compare deltas).
  EXPECT_EQ(result.metrics.CounterValue("net/c2s_bytes") -
                before.CounterValue("net/c2s_bytes"),
            result.traffic.c2s_bytes());
  EXPECT_EQ(result.metrics.CounterValue("net/c2c_bytes") -
                before.CounterValue("net/c2c_bytes"),
            result.traffic.c2c_bytes());

  // Every epoch passes through the traced phases.
  const obs::MetricsSnapshot::HistogramSample* epoch =
      result.metrics.FindHistogram("fl/epoch");
  const obs::MetricsSnapshot::HistogramSample* local =
      result.metrics.FindHistogram("fl/local_update");
  ASSERT_NE(epoch, nullptr);
  ASSERT_NE(local, nullptr);
  const obs::MetricsSnapshot::HistogramSample* epoch_before =
      before.FindHistogram("fl/epoch");
  EXPECT_EQ(epoch->count - (epoch_before != nullptr ? epoch_before->count : 0),
            4);
  EXPECT_GE(local->count, epoch->count);
  EXPECT_GT(epoch->sum, 0.0);

  // Loss/accuracy gauges hold the last epoch's values.
  const auto& gauges = result.metrics.gauges;
  const auto loss = std::find_if(gauges.begin(), gauges.end(), [](auto& g) {
    return g.name == "fl/train_loss";
  });
  ASSERT_NE(loss, gauges.end());
  EXPECT_DOUBLE_EQ(loss->value, result.history.back().train_loss);
}

// The chaos fleet's partition/outage/churn/quorum script on a cohort of 30,
// with every other counted mechanism switched on: link failures with one
// retry and the server fallback, jitter, an upload deadline, corruption,
// crashes, stragglers, a Gaussian-noise attack, and the full screen with
// reputation and a one-round quarantine.
TrainerConfig EveryCounterConfig() {
  TrainerConfig config = ChaosFleet::CohortOfEightConfig();
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

// Registry name and per-run value of every counter the trainer publishes.
std::vector<std::pair<std::string, int64_t>> RunCounterFacts(
    const RunResult& r) {
  const net::FaultCounters& f = r.faults;
  const RobustCounters& b = r.robust;
  const ChaosCounters& c = r.chaos;
  return {
      {"net/fault_attempts", f.attempts},
      {"net/fault_failures", f.failures},
      {"net/fault_retries", f.retries},
      {"net/fault_deadline_aborts", f.deadline_aborts},
      {"net/fault_aborted_transfers", f.aborted_transfers},
      {"net/fault_fallbacks", f.fallbacks},
      {"net/fault_corrupted", f.corrupted},
      {"net/fault_corrupt_rejected", f.corrupt_rejected},
      {"net/fault_dropped_stragglers", f.dropped_stragglers},
      {"net/fault_crash_epochs", f.crash_epochs},
      {"net/fault_crashes", f.crashes},
      {"net/fault_partitioned_transfers", f.partitioned_transfers},
      {"net/fault_outage_transfers", f.outage_transfers},
      {"fl/robust_screened_updates", b.screened_updates},
      {"fl/robust_nonfinite_rejected", b.nonfinite_rejected},
      {"fl/robust_norm_clipped", b.norm_clipped},
      {"fl/robust_norm_rejected", b.norm_rejected},
      {"fl/robust_cosine_rejected", b.cosine_rejected},
      {"fl/robust_attacked_updates", b.attacked_updates},
      {"fl/robust_quarantine_excluded", b.quarantine_excluded},
      {"fl/robust_quarantines", b.quarantines},
      {"fl/robust_rehabilitations", b.rehabilitations},
      {"fl/chaos_migrations_planned", c.migrations_planned},
      {"fl/chaos_migrations_completed", c.migrations_completed},
      {"fl/chaos_migration_fallbacks", c.migration_fallbacks},
      {"fl/chaos_migrations_rolled_back", c.migrations_rolled_back},
      {"fl/chaos_quorum_commits", c.quorum_commits},
      {"fl/chaos_quorum_misses", c.quorum_misses},
      {"fl/chaos_carryover_clients", c.carryover_clients},
      {"fl/chaos_churn_absences", c.churn_absences},
      {"fl/chaos_churn_departures", c.churn_departures},
      {"net/transfers", r.traffic.num_transfers()},
      {"net/c2s_bytes", r.traffic.c2s_bytes()},
      {"net/c2c_bytes", r.traffic.c2c_bytes()},
  };
}

TEST(TrainerTelemetryTest, RegistryCountersGrowByTheRunStructs) {
  const ChaosFleet fleet;
  const obs::MetricsSnapshot before = obs::Registry::Default().Snapshot();
  const RunResult result = fleet.Run(EveryCounterConfig());

  const auto facts = RunCounterFacts(result);
  ASSERT_EQ(facts.size(), 34u);
  int nonzero = 0;
  for (const auto& [name, value] : facts) {
    EXPECT_EQ(result.metrics.CounterValue(name) - before.CounterValue(name),
              value)
        << name;
    if (value != 0) ++nonzero;
  }
  // Not vacuous: only deadline_aborts (no transfer deadline),
  // nonfinite_rejected (the attack keeps models finite) and
  // carryover_clients (the run's one quorum miss carries no survivor over)
  // stay zero.
  EXPECT_GE(nonzero, 31);
}

TEST(TrainerTelemetryTest, DisabledTelemetryLeavesResultsIdentical) {
  TinyWorkload w;
  const RunResult enabled = w.Run("fedavg", 3);

  obs::Telemetry::Disable();
  const RunResult disabled = w.Run("fedavg", 3);
  obs::Telemetry::Enable();

  // Telemetry must be observation-only: identical learning trajectory,
  // traffic and simulated time either way.
  ASSERT_EQ(enabled.history.size(), disabled.history.size());
  for (size_t i = 0; i < enabled.history.size(); ++i) {
    EXPECT_EQ(enabled.history[i].train_loss, disabled.history[i].train_loss);
    EXPECT_EQ(enabled.history[i].test_accuracy,
              disabled.history[i].test_accuracy);
    EXPECT_EQ(enabled.history[i].cumulative_time_s,
              disabled.history[i].cumulative_time_s);
  }
  EXPECT_EQ(enabled.traffic.c2s_bytes(), disabled.traffic.c2s_bytes());
  EXPECT_EQ(enabled.traffic.c2c_bytes(), disabled.traffic.c2c_bytes());

  // And the disabled run reports no metrics at all.
  EXPECT_TRUE(disabled.metrics.counters.empty());
  EXPECT_TRUE(disabled.metrics.histograms.empty());
}

TEST(TrainerTelemetryTest, SimSpansLandOnSimulatedTimeTracks) {
  TinyWorkload w;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  recorder.Start();
  (void)w.Run("randmigr", 3);
  recorder.Stop();

  int sim_spans = 0;
  int wall_spans = 0;
  for (const obs::TraceEvent& e : recorder.ExportEvents()) {
    if (e.pid == 2) ++sim_spans;
    if (e.pid == 1 && !e.instant) ++wall_spans;
  }
  // One epoch span + phase spans per epoch on pid 2; the RAII scopes land
  // on pid 1.
  EXPECT_GE(sim_spans, 6);
  EXPECT_GE(wall_spans, 6);
}

}  // namespace
}  // namespace fedmigr::fl
