// Layout pins for every serialized state type.
//
// util::SchemaDigest folds the type tag of every field a Visit names, with
// sequence nesting and optional fields, but never a value, so a type's
// digest changes exactly when its stream layout does. Each row below maps
// a type to the version constant that owns its layout and the digest that
// layout had from that version on. A digest that differs from the row for
// the current version means the layout changed without a version bump,
// which old snapshots or journals would mis-parse silently: bump the owning
// constant and append rows for the types that moved (keep the old rows,
// they are the history).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "fl/robust.h"
#include "golden_fleets.h"
#include "net/budget.h"
#include "net/fault.h"
#include "net/traffic.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "obs/journal.h"
#include "rl/agent.h"
#include "rl/policy.h"
#include "rl/replay_buffer.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::fl {
namespace {

struct Row {
  const char* type;
  const char* owner;  // the version constant that owns the layout
  uint32_t version;
  uint64_t digest;
};

constexpr Row kRows[] = {
    {"util::Rng", "kTrainerStateVersion", 5, 0x807868f186231ee5ULL},
    {"nn::Tensor", "kTrainerStateVersion", 5, 0x40d503557531c59aULL},
    {"nn::Sgd", "kTrainerStateVersion", 5, 0x8b5d600f4744bed6ULL},
    {"nn::Adam", "kTrainerStateVersion", 5, 0x09a1e558cce2a216ULL},
    {"net::Budget", "kTrainerStateVersion", 5, 0x1454fcc70f75a53bULL},
    {"net::TrafficAccountant", "kTrainerStateVersion", 5,
     0xad459b2e833c93aaULL},
    {"net::FaultInjector", "kTrainerStateVersion", 5, 0x3d5228b2a02d4d5eULL},
    {"fl::RobustCounters", "kTrainerStateVersion", 5, 0x7c3f5f45870d183aULL},
    {"fl::ReputationTracker", "kTrainerStateVersion", 5, 0xc55f17050128a911ULL},
    {"fl::ChaosCounters", "kTrainerStateVersion", 5, 0x7c3f5f45870d183aULL},
    {"fl::EpochRecord", "kTrainerStateVersion", 5, 0x997b6a3862722d93ULL},
    {"fl::Client", "kTrainerStateVersion", 5, 0xd09a0284c0e1fa70ULL},
    {"fl::Trainer", "kTrainerStateVersion", 5, 0x522167f9b0f06e82ULL},
    {"rl::Transition", "kTrainerStateVersion", 5, 0xd423fb0ac214cd7cULL},
    {"rl::PrioritizedReplayBuffer", "kTrainerStateVersion", 5,
     0xa7436ca3e276ceabULL},
    {"rl::DdpgAgent", "kTrainerStateVersion", 5, 0xea8ddb951c0669c2ULL},
    {"rl::DrlMigrationPolicy", "kTrainerStateVersion", 5,
     0x1fde6ced2245e132ULL},
    {"net::TrafficAccountant", "kTrainerStateVersion", 6,
     0x9fea9096d73e2fa9ULL},
    {"net::FaultInjector", "kTrainerStateVersion", 6, 0x38dd53dfc3f5fe0fULL},
    {"fl::ReputationTracker", "kTrainerStateVersion", 6, 0xe8dec0257fbd918aULL},
    {"fl::Trainer", "kTrainerStateVersion", 6, 0xb47650574d13d804ULL},
    {"obs::JournalEvent", "obs::kJournalVersion", 1, 0xdcbd290fd10441a6ULL},
    {"obs::JournalHeader", "obs::kJournalVersion", 1, 0x7010fb01bc450e41ULL},
    {"obs::JournalSummary", "obs::kJournalVersion", 1, 0x13ec5c9b9ef9b4d5ULL},
};

std::string Hex(uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

uint32_t CurrentVersion(const std::string& owner) {
  if (owner == "kTrainerStateVersion") return kTrainerStateVersion;
  if (owner == "obs::kJournalVersion") return obs::kJournalVersion;
  ADD_FAILURE() << "unknown version constant " << owner;
  return 0;
}

// Checks `observed` against the type's newest row at or below the current
// value of its owning constant: a bump appends rows only for the types
// whose layout moved.
void ExpectRow(const std::string& type, uint64_t observed) {
  const Row* newest = nullptr;
  for (const Row& row : kRows) {
    if (type != row.type || row.version > CurrentVersion(row.owner)) continue;
    if (newest == nullptr || row.version > newest->version) newest = &row;
  }
  if (newest == nullptr) {
    ADD_FAILURE() << type << " has no row; add {\"" << type
                  << "\", <owning version constant>, <its value>, "
                  << Hex(observed) << "}";
    return;
  }
  if (observed == newest->digest) return;
  const uint32_t current = CurrentVersion(newest->owner);
  if (newest->version == current) {
    ADD_FAILURE() << "the stream layout of " << type << " changed ("
                  << Hex(observed) << ", row " << Hex(newest->digest)
                  << ") while " << newest->owner << " is still " << current
                  << ": bump " << newest->owner << " and append {\"" << type
                  << "\", \"" << newest->owner << "\", " << current + 1
                  << ", " << Hex(observed) << "}";
  } else {
    ADD_FAILURE() << "the stream layout of " << type << " changed with "
                  << newest->owner << " = " << current << "; append {\""
                  << type << "\", \"" << newest->owner << "\", " << current
                  << ", " << Hex(observed) << "}";
  }
}

std::unique_ptr<MigrationPolicy> DrlPolicy() {
  rl::DrlPolicyOptions options;
  options.online_learning = true;
  return std::make_unique<rl::DrlMigrationPolicy>(
      std::make_shared<rl::DdpgAgent>(rl::AgentConfig{}), options);
}

TEST(SchemaDigestTest, EveryStateTypeMatchesItsRow) {
  const Fig3Fleet fleet;
  Trainer trainer = fleet.MakeTrainer(Fig3Fleet::MakeConfig(), DrlPolicy());
  Client client(0, &fleet.data.train, {}, 0.1, 0.9, 1);
  rl::DrlMigrationPolicy policy(
      std::make_shared<rl::DdpgAgent>(rl::AgentConfig{}), {});

  ExpectRow("util::Rng", util::Digest(util::Rng(1)));
  ExpectRow("nn::Tensor", util::Digest(nn::Tensor()));
  ExpectRow("nn::Sgd", util::Digest(nn::Sgd(0.1, 0.9)));
  ExpectRow("nn::Adam", util::Digest(nn::Adam(1e-3)));
  ExpectRow("net::Budget", util::Digest(net::Budget()));
  ExpectRow("net::TrafficAccountant",
            util::Digest(net::TrafficAccountant()));
  ExpectRow("net::FaultInjector",
            util::Digest(net::FaultInjector(net::FaultConfig{})));
  ExpectRow("fl::RobustCounters", util::Digest(RobustCounters()));
  ExpectRow("fl::ReputationTracker",
            util::Digest(ReputationTracker(ReputationConfig{}, 4)));
  ExpectRow("fl::ChaosCounters", util::Digest(ChaosCounters()));
  ExpectRow("fl::EpochRecord", util::Digest(EpochRecord()));
  ExpectRow("fl::Client", util::Digest(client));
  ExpectRow("fl::Trainer", util::Digest(trainer));
  ExpectRow("rl::Transition", util::Digest(rl::Transition()));
  ExpectRow("rl::PrioritizedReplayBuffer",
            util::Digest(rl::PrioritizedReplayBuffer(8)));
  ExpectRow("rl::DdpgAgent", util::Digest(rl::DdpgAgent(rl::AgentConfig{})));
  ExpectRow("rl::DrlMigrationPolicy", util::Digest(policy));
  ExpectRow("obs::JournalEvent", util::Digest(obs::JournalEvent()));
  ExpectRow("obs::JournalHeader", util::Digest(obs::JournalHeader()));
  ExpectRow("obs::JournalSummary", util::Digest(obs::JournalSummary()));
}

// The digest folds one element per sequence, takes every optional branch
// and visits one client slot, so training (which fills sequences, sizes
// optimizer moments and materializes clients) cannot move it, nor can the
// participation shape or the fleet size.
TEST(SchemaDigestTest, DigestDependsOnTheCodeOnly) {
  const Fig3Fleet fleet;
  TrainerConfig config = Fig3Fleet::MakeConfig();
  config.max_epochs = 3;
  Trainer trainer = fleet.MakeTrainer(config, DrlPolicy());
  const uint64_t untrained = util::Digest(trainer);
  trainer.Run();
  EXPECT_EQ(util::Digest(trainer), untrained);

  const ChaosFleet chaos;
  Trainer cohort = chaos.MakeTrainer(ChaosFleet::CohortOfEightConfig());
  EXPECT_EQ(util::Digest(cohort), untrained);
  cohort.Run();
  EXPECT_EQ(util::Digest(cohort), untrained);
}

}  // namespace
}  // namespace fedmigr::fl
