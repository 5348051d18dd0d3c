#include "net/fault.h"

#include <cmath>

#include <gtest/gtest.h>

#include "net/sim_topologies.h"
#include "net/topology.h"
#include "net/traffic.h"

namespace fedmigr::net {
namespace {

TEST(FaultConfigTest, DefaultIsDisabled) {
  FaultConfig config;
  EXPECT_FALSE(config.enabled());
  FaultInjector injector(config);
  EXPECT_FALSE(injector.enabled());
}

TEST(FaultInjectorTest, DisabledTransferMatchesDirectAccounting) {
  const Topology topology = MakeC10SimTopology();
  FaultInjector injector;
  TrafficAccountant traffic;
  const TransferResult res = injector.Transfer(0, 1, 1000, topology, &traffic);
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.bytes, 1000);
  EXPECT_FALSE(res.corrupted);
  // Byte-identical to the direct path: same seconds, one traffic record.
  EXPECT_EQ(res.seconds, topology.TransferSeconds(0, 1, 1000));
  EXPECT_EQ(traffic.c2c_bytes(), 1000);
  EXPECT_EQ(traffic.num_transfers(), 1);
  EXPECT_EQ(injector.counters().attempts, 0);  // no-op path skips counters
}

TEST(FaultInjectorTest, DisabledEpochRollIsFree) {
  FaultInjector injector;
  injector.BeginEpoch(10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(injector.IsCrashed(i));
    EXPECT_EQ(injector.SlowdownFactor(i), 1.0);
  }
}

TEST(FaultInjectorTest, CertainFailureExhaustsRetries) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.link_failure_prob = 0.999999;
  config.max_retries = 2;
  FaultInjector injector(config);
  TrafficAccountant traffic;
  const TransferResult res = injector.Transfer(0, 1, 1000, topology, &traffic);
  EXPECT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(res.attempts, 3);
  // Failed attempts are still charged: bytes and records accumulate.
  EXPECT_EQ(res.bytes, 3000);
  EXPECT_EQ(traffic.c2c_bytes(), 3000);
  EXPECT_EQ(injector.counters().failures, 3);
  EXPECT_EQ(injector.counters().retries, 2);
  EXPECT_EQ(injector.counters().aborted_transfers, 1);
}

TEST(FaultInjectorTest, BackoffExtendsFailedTransferTime) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.link_failure_prob = 0.999999;
  config.max_retries = 2;
  config.backoff_base_s = 1.0;
  FaultInjector injector(config);
  const TransferResult res = injector.Transfer(0, 1, 1000, topology, nullptr);
  // 3 attempts + backoffs of 1s and 2s.
  const double attempt = topology.TransferSeconds(0, 1, 1000);
  EXPECT_NEAR(res.seconds, 3 * attempt + 1.0 + 2.0, 1e-9);
}

TEST(FaultInjectorTest, DeadlineAbandonsSlowTransfer) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.link_failure_prob = 0.999999;
  config.max_retries = 10;
  config.backoff_base_s = 1.0;
  config.transfer_deadline_s = 2.5;
  FaultInjector injector(config);
  const TransferResult res = injector.Transfer(0, 1, 1000, topology, nullptr);
  EXPECT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(res.seconds, 2.5);  // the sender waits out the deadline
  EXPECT_GT(injector.counters().deadline_aborts, 0);
}

TEST(FaultInjectorTest, ReliableLinkDeliversFirstTry) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.crash_prob = 0.5;  // enabled, but links themselves are clean
  FaultInjector injector(config);
  TrafficAccountant traffic;
  const TransferResult res =
      injector.Transfer(0, net::kServerId, 500, topology, &traffic);
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.bytes, 500);
  EXPECT_EQ(traffic.c2s_bytes(), 500);
}

TEST(FaultInjectorTest, CorruptionFlagsDeliveries) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.corruption_prob = 1.0;
  FaultInjector injector(config);
  const TransferResult res = injector.Transfer(0, 1, 100, topology, nullptr);
  EXPECT_TRUE(res.status.ok());
  EXPECT_TRUE(res.corrupted);
  EXPECT_EQ(injector.counters().corrupted, 1);
}

TEST(FaultInjectorTest, CrashWindowsLastSampledEpochs) {
  FaultConfig config;
  config.crash_prob = 0.999999;
  config.crash_min_epochs = 2;
  config.crash_max_epochs = 2;
  FaultInjector injector(config);
  injector.BeginEpoch(1);
  EXPECT_TRUE(injector.IsCrashed(0));
  injector.BeginEpoch(1);  // still down (2-epoch window)...
  injector.BeginEpoch(1);  // ...but crash_prob re-fires immediately
  EXPECT_TRUE(injector.IsCrashed(0));
  EXPECT_GE(injector.counters().crashes, 1);
  EXPECT_GE(injector.counters().crash_epochs, 2);
}

TEST(FaultInjectorTest, CrashRecoveryWithZeroReCrashProb) {
  // One deterministic crash, then force recovery by observing the window.
  FaultConfig config;
  config.crash_prob = 0.999999;
  config.crash_min_epochs = 1;
  config.crash_max_epochs = 1;
  FaultInjector injector(config);
  injector.BeginEpoch(3);
  EXPECT_TRUE(injector.IsCrashed(1));
  // The server id is never crashed.
  EXPECT_FALSE(injector.IsCrashed(kServerId));
}

TEST(FaultInjectorTest, StragglersSlowDown) {
  FaultConfig config;
  config.straggler_prob = 1.0;
  config.straggler_slowdown = 3.0;
  FaultInjector injector(config);
  injector.BeginEpoch(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(injector.SlowdownFactor(i), 3.0);
  }
  EXPECT_EQ(injector.SlowdownFactor(kServerId), 1.0);
}

TEST(FaultInjectorTest, StragglerSlowsTransfers) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.straggler_prob = 1.0;
  config.straggler_slowdown = 2.0;
  FaultInjector injector(config);
  injector.BeginEpoch(10);
  const TransferResult res = injector.Transfer(0, 1, 1000, topology, nullptr);
  EXPECT_NEAR(res.seconds, 2.0 * topology.TransferSeconds(0, 1, 1000), 1e-12);
}

TEST(FaultInjectorTest, JitterDegradesBandwidthWithinBounds) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.bandwidth_jitter = 0.5;
  FaultInjector injector(config);
  const double nominal = topology.TransferSeconds(0, 1, 1 << 20);
  for (int trial = 0; trial < 50; ++trial) {
    const TransferResult res =
        injector.Transfer(0, 1, 1 << 20, topology, nullptr);
    EXPECT_GE(res.seconds, nominal);
    EXPECT_LE(res.seconds, nominal * 1.5 + 1e-12);
  }
}

TEST(FaultInjectorTest, DeterministicAcrossInstances) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.link_failure_prob = 0.3;
  config.corruption_prob = 0.1;
  config.bandwidth_jitter = 0.2;
  config.seed = 11;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int t = 0; t < 40; ++t) {
    const TransferResult ra = a.Transfer(0, 5, 1000, topology, nullptr);
    const TransferResult rb = b.Transfer(0, 5, 1000, topology, nullptr);
    EXPECT_EQ(ra.status.ok(), rb.status.ok());
    EXPECT_EQ(ra.seconds, rb.seconds);
    EXPECT_EQ(ra.attempts, rb.attempts);
    EXPECT_EQ(ra.corrupted, rb.corrupted);
  }
  EXPECT_EQ(a.counters().failures, b.counters().failures);
}

TEST(FaultInjectorStateTest, SaveLoadContinuesIdenticalTrajectory) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.link_failure_prob = 0.25;
  config.corruption_prob = 0.1;
  config.bandwidth_jitter = 0.3;
  config.crash_prob = 0.1;
  config.straggler_prob = 0.2;
  config.seed = 31;

  // Drive one injector through a mixed workload, snapshot it mid-stream.
  FaultInjector reference(config);
  for (int epoch = 0; epoch < 5; ++epoch) {
    reference.BeginEpoch(10);
    for (int i = 0; i < 6; ++i) {
      reference.Transfer(i, (i + 3) % 10, 5000, topology, nullptr);
    }
  }
  util::ByteWriter writer;
  util::Save(reference, &writer);
  FaultInjector restored(config);
  util::ByteReader reader(writer.bytes());
  ASSERT_TRUE(util::Load(&reader, &restored).ok());
  EXPECT_TRUE(reader.AtEnd());

  EXPECT_EQ(restored.counters().attempts, reference.counters().attempts);
  EXPECT_EQ(restored.counters().failures, reference.counters().failures);
  EXPECT_EQ(restored.counters().crashes, reference.counters().crashes);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(restored.IsCrashed(i), reference.IsCrashed(i));
    EXPECT_EQ(restored.SlowdownFactor(i), reference.SlowdownFactor(i));
  }
  // Both continue producing the exact same fault trajectory.
  for (int epoch = 0; epoch < 5; ++epoch) {
    reference.BeginEpoch(10);
    restored.BeginEpoch(10);
    for (int i = 0; i < 10; ++i) {
      ASSERT_EQ(restored.IsCrashed(i), reference.IsCrashed(i));
      ASSERT_EQ(restored.SlowdownFactor(i), reference.SlowdownFactor(i));
    }
    for (int i = 0; i < 6; ++i) {
      const TransferResult ra =
          reference.Transfer(i, (i + 3) % 10, 5000, topology, nullptr);
      const TransferResult rb =
          restored.Transfer(i, (i + 3) % 10, 5000, topology, nullptr);
      ASSERT_EQ(ra.status.ok(), rb.status.ok());
      ASSERT_EQ(ra.seconds, rb.seconds);
      ASSERT_EQ(ra.bytes, rb.bytes);
      ASSERT_EQ(ra.attempts, rb.attempts);
      ASSERT_EQ(ra.corrupted, rb.corrupted);
    }
  }
  EXPECT_EQ(restored.counters().attempts, reference.counters().attempts);
  EXPECT_EQ(restored.counters().corrupted, reference.counters().corrupted);
}

TEST(ChaosConfigTest, ZeroedChaosKeepsInjectorDisabled) {
  FaultConfig config;
  EXPECT_FALSE(config.chaos.enabled());
  EXPECT_FALSE(config.enabled());
  // A chaos-only config enables the injector without touching any RNG knob.
  config.chaos.churn_rate = 0.1;
  EXPECT_TRUE(config.chaos.enabled());
  EXPECT_TRUE(config.enabled());
}

TEST(ChaosScheduleTest, PartitionSealsCrossLanAndServerHops) {
  const Topology topology = MakeC10SimTopology();  // LANs {0..3},{4..6},{7..9}
  FaultConfig config;
  config.chaos.partitions.push_back({/*lan=*/1, /*start_epoch=*/2,
                                     /*duration_epochs=*/3});
  FaultInjector injector(config);
  TrafficAccountant traffic;

  injector.BeginEpoch(10);  // epoch 1: window not yet open
  EXPECT_FALSE(injector.LanSealed(1, injector.epoch()));
  EXPECT_TRUE(injector.Transfer(4, 0, 100, topology, &traffic).status.ok());

  injector.BeginEpoch(10);  // epoch 2: LAN 1 sealed
  EXPECT_TRUE(injector.LanSealed(1, injector.epoch()));
  EXPECT_FALSE(injector.LanSealed(0, injector.epoch()));
  const int64_t bytes_before = traffic.total_bytes();
  // Cross-boundary C2C, both directions, and the server hop all fail fast
  // with connection-setup latency, zero bytes, no traffic record.
  const TransferResult out = injector.Transfer(4, 0, 100, topology, &traffic);
  EXPECT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(out.bytes, 0);
  EXPECT_EQ(out.seconds, topology.config().link_latency_s);
  EXPECT_FALSE(injector.Transfer(0, 5, 100, topology, &traffic).status.ok());
  EXPECT_FALSE(
      injector.Transfer(4, kServerId, 100, topology, &traffic).status.ok());
  EXPECT_FALSE(
      injector.Transfer(kServerId, 6, 100, topology, &traffic).status.ok());
  EXPECT_EQ(traffic.total_bytes(), bytes_before);
  // Intra-LAN traffic inside the sealed LAN continues, as does traffic
  // that never touches it.
  EXPECT_TRUE(injector.Transfer(4, 5, 100, topology, &traffic).status.ok());
  EXPECT_TRUE(injector.Transfer(0, 1, 100, topology, &traffic).status.ok());
  EXPECT_TRUE(
      injector.Transfer(0, kServerId, 100, topology, &traffic).status.ok());
  EXPECT_EQ(injector.counters().partitioned_transfers, 4);

  injector.BeginEpoch(10);  // epochs 3, 4: still sealed
  injector.BeginEpoch(10);
  EXPECT_TRUE(injector.LanSealed(1, injector.epoch()));
  injector.BeginEpoch(10);  // epoch 5: window closed
  EXPECT_FALSE(injector.LanSealed(1, injector.epoch()));
  EXPECT_TRUE(injector.Transfer(4, 0, 100, topology, &traffic).status.ok());
}

TEST(ChaosScheduleTest, RecurringPartitionGenerator) {
  FaultConfig config;
  config.chaos.partition_period = 5;
  config.chaos.partition_phase = 2;
  config.chaos.partition_lan = 0;
  config.chaos.partition_epochs = 2;
  FaultInjector injector(config);
  // Sealed at epochs 2,3, 7,8, 12,13, ...
  for (int epoch = 1; epoch <= 14; ++epoch) {
    const bool sealed = (epoch - 2) >= 0 && (epoch - 2) % 5 < 2;
    EXPECT_EQ(injector.LanSealed(0, epoch), sealed) << "epoch " << epoch;
    EXPECT_FALSE(injector.LanSealed(1, epoch));
  }
  EXPECT_EQ(injector.ActivePartitions(2), 1);
  EXPECT_EQ(injector.ActivePartitions(4), 0);
}

TEST(ChaosScheduleTest, OutageBlocksOnlyServerHops) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.chaos.outages.push_back({/*start_epoch=*/1, /*duration_epochs=*/2});
  FaultInjector injector(config);
  TrafficAccountant traffic;
  injector.BeginEpoch(10);
  EXPECT_TRUE(injector.ServerDown(injector.epoch()));
  EXPECT_FALSE(
      injector.Transfer(0, kServerId, 100, topology, &traffic).status.ok());
  EXPECT_FALSE(
      injector.Transfer(kServerId, 9, 100, topology, &traffic).status.ok());
  // C2C is unaffected, including cross-LAN.
  EXPECT_TRUE(injector.Transfer(0, 9, 100, topology, &traffic).status.ok());
  EXPECT_EQ(injector.counters().outage_transfers, 2);
  injector.BeginEpoch(10);
  injector.BeginEpoch(10);  // epoch 3: outage over
  EXPECT_FALSE(injector.ServerDown(injector.epoch()));
  EXPECT_TRUE(
      injector.Transfer(0, kServerId, 100, topology, &traffic).status.ok());
}

TEST(ChaosScheduleTest, ChurnIsAPureHashAtTheConfiguredRate) {
  FaultConfig config;
  config.chaos.churn_rate = 0.2;
  FaultInjector a(config);
  FaultInjector b(config);
  int out = 0;
  const int clients = 500;
  const int rounds = 40;
  for (int r = 0; r < rounds; ++r) {
    for (int c = 0; c < clients; ++c) {
      ASSERT_EQ(a.ChurnedOut(c, r), b.ChurnedOut(c, r));
      if (a.ChurnedOut(c, r)) ++out;
    }
  }
  // Pure in (client, round): no draw above consumed injector RNG, so the
  // answer is stable across repeated queries and instances.
  EXPECT_EQ(a.ChurnedOut(3, 7), b.ChurnedOut(3, 7));
  const double rate = static_cast<double>(out) / (clients * rounds);
  EXPECT_NEAR(rate, 0.2, 0.02);
  // A different churn seed reshuffles membership.
  FaultConfig other = config;
  other.chaos.churn_seed = 999;
  FaultInjector c(other);
  int diff = 0;
  for (int i = 0; i < clients; ++i) {
    if (a.ChurnedOut(i, 0) != c.ChurnedOut(i, 0)) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(ChaosScheduleTest, ChaosDrawsNoRngFromTheFaultStreams) {
  // Two injectors with identical link-fault knobs, one with a partition
  // schedule on top: their transfer trajectories outside sealed windows
  // must be bit-identical (the chaos layer consumes no RNG).
  const Topology topology = MakeC10SimTopology();
  FaultConfig plain;
  plain.link_failure_prob = 0.3;
  plain.bandwidth_jitter = 0.2;
  plain.seed = 13;
  FaultConfig chaotic = plain;
  chaotic.chaos.partitions.push_back({/*lan=*/2, /*start_epoch=*/100,
                                      /*duration_epochs=*/1});
  chaotic.chaos.churn_rate = 0.3;
  FaultInjector a(plain);
  FaultInjector b(chaotic);
  for (int epoch = 0; epoch < 5; ++epoch) {
    a.BeginEpoch(10);
    b.BeginEpoch(10);
    for (int i = 0; i < 6; ++i) {
      const TransferResult ra = a.Transfer(i, (i + 2) % 10, 700, topology,
                                           nullptr);
      const TransferResult rb = b.Transfer(i, (i + 2) % 10, 700, topology,
                                           nullptr);
      ASSERT_EQ(ra.status.ok(), rb.status.ok());
      ASSERT_EQ(ra.seconds, rb.seconds);
      ASSERT_EQ(ra.attempts, rb.attempts);
    }
  }
}

TEST(FaultInjectorStateTest, ChaosEpochSurvivesSaveLoad) {
  const Topology topology = MakeC10SimTopology();
  FaultConfig config;
  config.chaos.partitions.push_back({/*lan=*/0, /*start_epoch=*/3,
                                     /*duration_epochs=*/2});
  FaultInjector reference(config);
  reference.BeginEpoch(10);
  reference.BeginEpoch(10);
  reference.Transfer(0, kServerId, 100, topology, nullptr);  // epoch 2: open

  util::ByteWriter writer;
  util::Save(reference, &writer);
  FaultInjector restored(config);
  util::ByteReader reader(writer.bytes());
  ASSERT_TRUE(util::Load(&reader, &restored).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.epoch(), reference.epoch());

  // Both cross into the sealed window in lockstep.
  reference.BeginEpoch(10);
  restored.BeginEpoch(10);
  const TransferResult ra =
      reference.Transfer(0, kServerId, 100, topology, nullptr);
  const TransferResult rb =
      restored.Transfer(0, kServerId, 100, topology, nullptr);
  EXPECT_FALSE(ra.status.ok());
  EXPECT_FALSE(rb.status.ok());
  EXPECT_EQ(restored.counters().partitioned_transfers,
            reference.counters().partitioned_transfers);
}

TEST(FaultInjectorStateTest, TruncatedStateRejected) {
  FaultConfig config;
  config.crash_prob = 0.5;
  config.seed = 7;
  FaultInjector injector(config);
  injector.BeginEpoch(4);
  util::ByteWriter writer;
  util::Save(injector, &writer);
  for (size_t cut = 0; cut < writer.size(); cut += 3) {
    FaultInjector victim(config);
    util::ByteReader reader(writer.bytes().data(), cut);
    EXPECT_FALSE(util::Load(&reader, &victim).ok()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace fedmigr::net
