// Exact-tier pins of the serialized state, and a CRC-bypassing corruption
// sweep over it.
//
// StateBytesPinTest runs the TrainerGoldenTest configs and a FedMigr (DRL,
// online learning) config, hashes each trainer's SaveState bytes, three
// sealed journal images and three pre-trained agents with FNV-1a 64, and
// compares each hash with the table below for the active GEMM kernel.
// Model floats depend on the kernel, so each has its own column. A change
// that moves model floats on purpose re-records a column and states why
// (DESIGN.md §15); a refactor of the serializers must leave every hash as
// it is.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_fleets.h"
#include "nn/gemm.h"
#include "obs/journal.h"
#include "rl/agent.h"
#include "rl/policy.h"
#include "rl/pretrain.h"
#include "rl/pretrained_agent.h"
#include "util/serial.h"

namespace fedmigr::fl {
namespace {

uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

struct Pin {
  const char* name;
  uint64_t avx2;  // GemmKernelName() "avx2+fma"
  uint64_t portable;
};

// Recorded with a Release build; every hash is independent of the intra-op
// and inter-client thread counts.
constexpr Pin kPins[] = {
    {"fig3-full", 0x46209f2bc3250a57ULL,
     0x5a980c0e090cf23cULL},
    {"fig3-partial-faults", 0xbce583d4fe3f3ddcULL,
     0x79cf65188d185e03ULL},
    {"chaos-cohort-8", 0x2d74c3652aa22192ULL,
     0x76062eda4bab0fc8ULL},
    {"chaos-cohort-8-journal", 0x854c861b62761d16ULL,
     0x81b38c230d41f716ULL},
    {"every-counter-journal", 0x6461ba72269d5f1bULL,
     0x0d0206bc5ed9ef10ULL},
    {"fedmigr-drl", 0xfd5f6c7c8b04f58aULL,
     0x2aa28e5e02408d2eULL},
    {"fig3-full-journal", 0xb369b14fb7bc99d7ULL,
     0xf5363ab6c3619391ULL},
    {"pretrained-10-10-2", 0xa03e2e6104b0ea65ULL,
     0xf382283e6dddf75eULL},
    {"pretrained-6-6-2", 0x405d467afe6c264cULL,
     0x07893fd40dbc5638ULL},
    {"pretrained-20-10-4", 0x1ad65ffda9b421e7ULL,
     0x0c126eb20104828dULL},
};

void ExpectPinned(const char* name, const std::vector<uint8_t>& bytes) {
  const std::string kernel = nn::GemmKernelName();
  const uint64_t observed = Fnv1a64(bytes);
  for (const Pin& pin : kPins) {
    if (std::strcmp(pin.name, name) != 0) continue;
    ASSERT_TRUE(kernel == "avx2+fma" || kernel == "portable")
        << "no pin column for GEMM kernel " << kernel;
    const uint64_t expected = kernel == "avx2+fma" ? pin.avx2 : pin.portable;
    EXPECT_EQ(Hex(observed), Hex(expected))
        << name << " (" << bytes.size() << " bytes, kernel " << kernel
        << ") hashed to " << Hex(observed);
    return;
  }
  ADD_FAILURE() << "no pin named " << name;
}

std::vector<uint8_t> StateBytes(const Trainer& trainer) {
  util::ByteWriter writer;
  trainer.SaveState(&writer);
  return writer.TakeBytes();
}

// FedMigr's DRL policy on the Fig. 3 fleet with online learning, so the
// state carries the replay buffer, both Adam moment sets and the pending
// decision queues. A small batch lets the agent train from epoch 2 on.
std::unique_ptr<MigrationPolicy> DrlPolicy() {
  rl::AgentConfig agent;
  agent.batch_size = 8;
  rl::DrlPolicyOptions options;
  options.online_learning = true;
  options.rho = 0.2;
  return std::make_unique<rl::DrlMigrationPolicy>(
      std::make_shared<rl::DdpgAgent>(agent), options);
}

TrainerConfig DrlConfig() {
  TrainerConfig config = Fig3Fleet::MakeConfig();
  config.scheme_name = "fedmigr";
  config.max_epochs = 6;
  config.agg_period = 2;
  config.eval_every = 3;
  config.dropout_prob = 0.1;
  config.fault.link_failure_prob = 0.1;
  return config;
}

TEST(StateBytesPinTest, Fig3CrossLanFullParticipation) {
  const Fig3Fleet fleet;
  Trainer trainer = fleet.MakeTrainer(Fig3Fleet::MakeConfig());
  obs::Journal journal(obs::Journal::Options{});
  ASSERT_TRUE(journal.Attach(0).ok());
  trainer.SetJournal(&journal);
  trainer.Run();
  ExpectPinned("fig3-full", StateBytes(trainer));
  ExpectPinned("fig3-full-journal", journal.memory_image());
}

TEST(StateBytesPinTest, Fig3PartialParticipationUnderLinkFaults) {
  const Fig3Fleet fleet;
  Trainer trainer = fleet.MakeTrainer(Fig3Fleet::PartialUnderFaultsConfig());
  trainer.Run();
  ExpectPinned("fig3-partial-faults", StateBytes(trainer));
}

// The journal carries the quorum, churn, carryover and chaos-edge events
// the Fig. 3 run never emits.
TEST(StateBytesPinTest, ChaosCohortOfEight) {
  const ChaosFleet fleet;
  Trainer trainer = fleet.MakeTrainer(ChaosFleet::CohortOfEightConfig());
  obs::Journal journal(obs::Journal::Options{});
  ASSERT_TRUE(journal.Attach(0).ok());
  trainer.SetJournal(&journal);
  trainer.Run();
  ExpectPinned("chaos-cohort-8", StateBytes(trainer));
  ExpectPinned("chaos-cohort-8-journal", journal.memory_image());
}

// A journal with screen verdicts, quarantine transitions, refused
// quarantined uploads and dropped stragglers besides the chaos script.
TEST(StateBytesPinTest, EveryCounterJournal) {
  const ChaosFleet fleet;
  Trainer trainer = fleet.MakeTrainer(ChaosFleet::EveryCounterConfig());
  obs::Journal journal(obs::Journal::Options{});
  ASSERT_TRUE(journal.Attach(0).ok());
  trainer.SetJournal(&journal);
  const RunResult result = trainer.Run();
  EXPECT_GT(result.robust.screened_updates, 0);
  EXPECT_GT(result.robust.quarantines, 0);
  EXPECT_GT(result.robust.quarantine_excluded, 0);
  EXPECT_GT(result.faults.dropped_stragglers, 0);
  ExpectPinned("every-counter-journal", journal.memory_image());
}

TEST(StateBytesPinTest, FedMigrDrlOnlineLearning) {
  const Fig3Fleet fleet;
  Trainer trainer = fleet.MakeTrainer(DrlConfig(), DrlPolicy());
  trainer.Run();
  ExpectPinned("fedmigr-drl", StateBytes(trainer));
}

TEST(StateBytesPinTest, PretrainedAgents) {
  const struct {
    const char* name;
    int clients, classes, lans;
  } cases[] = {{"pretrained-10-10-2", 10, 10, 2},
               {"pretrained-6-6-2", 6, 6, 2},
               {"pretrained-20-10-4", 20, 10, 4}};
  for (const auto& c : cases) {
    const rl::DdpgAgent agent =
        rl::MakePretrainedAgent(c.clients, c.classes, c.lans);
    util::ByteWriter writer;
    util::Save(agent, &writer);
    ExpectPinned(c.name, writer.bytes());
  }
}

// Flips one byte at a time, at a fixed stride, over raw SaveState bytes
// and feeds each variant straight to LoadState, past the snapshot
// container's CRC. Every variant must come back as a Status or load; none
// may crash (the ASan/UBSan job runs this too).
void SweepByteFlips(const std::vector<uint8_t>& bytes, Trainer* victim) {
  const size_t stride = std::max<size_t>(1, bytes.size() / 700) | 1;
  int rejected = 0;
  for (size_t pos = 0; pos < bytes.size(); pos += stride) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0xFF;
    util::ByteReader reader(corrupt);
    if (!victim->LoadState(&reader).ok()) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  // The untouched bytes still load afterwards.
  util::ByteReader reader(bytes);
  EXPECT_TRUE(victim->LoadState(&reader).ok());
  EXPECT_EQ(StateBytes(*victim), bytes);
}

TEST(TrainerStateCorruptionTest, DrlStateByteFlipsReturnStatusOrLoad) {
  const Fig3Fleet fleet;
  TrainerConfig config = DrlConfig();
  config.max_epochs = 4;
  Trainer source = fleet.MakeTrainer(config, DrlPolicy());
  source.Run();
  Trainer victim = fleet.MakeTrainer(config, DrlPolicy());
  SweepByteFlips(StateBytes(source), &victim);
}

TEST(TrainerStateCorruptionTest, CohortStateByteFlipsReturnStatusOrLoad) {
  const ChaosFleet fleet;
  TrainerConfig config = ChaosFleet::CohortOfEightConfig();
  config.max_epochs = 4;
  Trainer source = fleet.MakeTrainer(config);
  source.Run();
  Trainer victim = fleet.MakeTrainer(config);
  SweepByteFlips(StateBytes(source), &victim);
}

}  // namespace
}  // namespace fedmigr::fl
