// Exact-tier pins of the serialized state, and a CRC-bypassing corruption
// sweep over it.
//
// StateBytesPinTest runs the TrainerGoldenTest configs and a FedMigr (DRL,
// online learning) config, hashes each trainer's SaveState bytes, three
// sealed journal images and three pre-trained agents with FNV-1a 64, and
// compares each hash with the table below for the active GEMM kernel. Each
// trainer also has a `-models` pin over what its run computed, whatever the
// snapshot layout: the global model's and every materialized client's
// parameters, and what the run charged (Render). A trainer-state layout
// bump re-records the state pins and must leave the `-models` pins as
// they are.
// Model floats depend on the kernel's byte family (nn::GemmByteFamily: the
// AVX-512 and AVX2 kernels share the fused column), so each family has its
// own column. A change that moves model floats on purpose re-records a
// column and states why (DESIGN.md §15); a refactor of the serializers must
// leave every hash as it is.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden_fleets.h"
#include "nn/gemm.h"
#include "nn/serialize.h"
#include "nn/tensor_helpers.h"
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
  uint64_t fused;  // GemmByteFamily() "fused": avx512+fma and avx2+fma
  uint64_t portable;
};

// Recorded with a Release build; every hash is independent of the
// trainer's thread count. The four trainer state pins were last re-recorded
// for kTrainerStateVersion 6, which left their -models pins as they were.
constexpr Pin kPins[] = {
    {"fig3-full", 0x40c399bfb095505eULL,
     0x6f75845545ce7249ULL},
    {"fig3-partial-faults", 0x7f1f71427c664ed7ULL,
     0x47b737bdd339402eULL},
    {"chaos-cohort-8", 0xe6df7dc52a356267ULL,
     0xe9edde63221c3657ULL},
    {"chaos-cohort-8-journal", 0x854c861b62761d16ULL,
     0x81b38c230d41f716ULL},
    {"every-counter-journal", 0x6461ba72269d5f1bULL,
     0x0d0206bc5ed9ef10ULL},
    {"fedmigr-drl", 0x58b5a874b7c60f25ULL,
     0xa69e95e328f8940dULL},
    {"fig3-full-journal", 0xb369b14fb7bc99d7ULL,
     0xf5363ab6c3619391ULL},
    {"pretrained-10-10-2", 0xa03e2e6104b0ea65ULL,
     0xf382283e6dddf75eULL},
    {"pretrained-6-6-2", 0x405d467afe6c264cULL,
     0x07893fd40dbc5638ULL},
    {"pretrained-20-10-4", 0x1ad65ffda9b421e7ULL,
     0x0c126eb20104828dULL},
    {"fig3-full-models", 0xd7834906be376cfbULL,
     0x0bb501ccd2e995d1ULL},
    {"fig3-partial-faults-models", 0x874ebd51bdf4b9ecULL,
     0x3a985a2cb86c1f03ULL},
    {"chaos-cohort-8-models", 0x4c543f27fdd593e0ULL,
     0xcc02e6c29d3bd291ULL},
    {"fedmigr-drl-models", 0x5f9a7196c009a494ULL,
     0x1a807138e146def4ULL},
};

void ExpectPinned(const char* name, const std::vector<uint8_t>& bytes) {
  const std::string kernel = nn::GemmKernelName();
  const std::string family = nn::GemmByteFamily();
  const uint64_t observed = Fnv1a64(bytes);
  for (const Pin& pin : kPins) {
    if (std::strcmp(pin.name, name) != 0) continue;
    ASSERT_NE(family, "") << "no pin column for GEMM kernel " << kernel;
    const uint64_t expected = family == "fused" ? pin.fused : pin.portable;
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

// The global model's parameter bytes, each materialized client's id and
// parameter bytes in id order, then the run's rendering and clock.
std::vector<uint8_t> ModelsBytes(const Trainer& trainer,
                                 const RunResult& result) {
  std::vector<uint8_t> bytes = nn::SerializeParams(trainer.global_model());
  const auto append = [&bytes](const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + size);
  };
  for (int i = 0; i < trainer.num_clients(); ++i) {
    const Client* client = trainer.materialized_client(i);
    if (client == nullptr) continue;
    append(&i, sizeof(i));
    if (!client->has_model()) continue;
    const std::vector<uint8_t> params = nn::SerializeParams(client->model());
    append(params.data(), params.size());
  }
  const std::string charged = Render(result) + "t=" + Bits(result.time_s);
  append(charged.data(), charged.size());
  return bytes;
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
  const RunResult result = trainer.Run();
  ExpectPinned("fig3-full", StateBytes(trainer));
  ExpectPinned("fig3-full-models", ModelsBytes(trainer, result));
  ExpectPinned("fig3-full-journal", journal.memory_image());
}

TEST(StateBytesPinTest, Fig3PartialParticipationUnderLinkFaults) {
  const Fig3Fleet fleet;
  Trainer trainer = fleet.MakeTrainer(Fig3Fleet::PartialUnderFaultsConfig());
  const RunResult result = trainer.Run();
  ExpectPinned("fig3-partial-faults", StateBytes(trainer));
  ExpectPinned("fig3-partial-faults-models", ModelsBytes(trainer, result));
}

// The journal carries the quorum, churn, carryover and chaos-edge events
// the Fig. 3 run never emits.
TEST(StateBytesPinTest, ChaosCohortOfEight) {
  const ChaosFleet fleet;
  Trainer trainer = fleet.MakeTrainer(ChaosFleet::CohortOfEightConfig());
  obs::Journal journal(obs::Journal::Options{});
  ASSERT_TRUE(journal.Attach(0).ok());
  trainer.SetJournal(&journal);
  const RunResult result = trainer.Run();
  ExpectPinned("chaos-cohort-8", StateBytes(trainer));
  ExpectPinned("chaos-cohort-8-models", ModelsBytes(trainer, result));
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
  const RunResult result = trainer.Run();
  ExpectPinned("fedmigr-drl", StateBytes(trainer));
  ExpectPinned("fedmigr-drl-models", ModelsBytes(trainer, result));
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

// Crafted streams: a valid state with one section replaced by a hand-built
// one that breaks what the ids imply. Each must come back as the Status
// that names the broken rule (the ASan/UBSan job runs these too).

// A provenance record as the stream carries it.
struct ProvenanceRecord {
  std::vector<double> dist;
  double samples = 0.0;
  int64_t lineage = 0;

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(dist);
    ar.Io(samples);
    ar.Io(lineage);
    return ar.status();
  }
};
using ProvenanceMap = std::map<int, ProvenanceRecord>;

template <class T>
std::vector<uint8_t> Bytes(const T& value) {
  util::ByteWriter writer;
  writer.Io(value);
  return writer.TakeBytes();
}

size_t FindOnce(const std::vector<uint8_t>& bytes,
                const std::vector<uint8_t>& pattern) {
  const auto at =
      std::search(bytes.begin(), bytes.end(), pattern.begin(), pattern.end());
  EXPECT_NE(at, bytes.end());
  EXPECT_EQ(std::search(at + 1, bytes.end(), pattern.begin(), pattern.end()),
            bytes.end())
      << "the anchor is not unique";
  return static_cast<size_t>(at - bytes.begin());
}

// Parses a `T` at `at` and returns the offset just past it.
template <class T>
size_t ParseAt(const std::vector<uint8_t>& bytes, size_t at, T* value) {
  util::ByteReader reader(bytes.data() + at, bytes.size() - at);
  reader.Io(*value);
  EXPECT_TRUE(reader.ok()) << reader.status().message();
  return bytes.size() - reader.remaining();
}

// A chaos cohort's state after six epochs (K = 60; faults, attacks and
// reputation on) and where the sections the crafted streams replace lie.
// The injector streams its RNG and then the counters the run reports, and
// the reputation tracker follows the robustness counters; the rest is
// parsed forward from there.
struct CohortState {
  static TrainerConfig Config() {
    TrainerConfig config = ChaosFleet::EveryCounterConfig();
    config.max_epochs = 6;
    return config;
  }

  CohortState() : trainer(fleet.MakeTrainer(Config())) {
    const RunResult result = trainer.Run();
    bytes = StateBytes(trainer);
    util::ByteWriter counters;
    const net::FaultCounters& f = result.faults;
    for (int64_t v : {f.attempts, f.failures, f.retries, f.deadline_aborts,
                      f.aborted_transfers, f.fallbacks, f.corrupted,
                      f.corrupt_rejected, f.dropped_stragglers,
                      f.crash_epochs, f.crashes}) {
      counters.Io(v);
    }
    faults = FindOnce(bytes, counters.bytes()) - Bytes(util::Rng()).size();
    net::FaultInjector injector(Config().fault);
    cohort = ParseAt(bytes, faults, &injector);
    std::vector<int> ids;
    // Two participation bytes per cohort member follow the cohort.
    provenance = ParseAt(bytes, cohort, &ids) + 2 * ids.size();
    EXPECT_EQ(ids, trainer.cohort());
    params = ParseAt(bytes, provenance, &records);
    std::vector<float> floats;
    clients = ParseAt(bytes, params, &floats);
    reputation = FindOnce(bytes, Bytes(result.robust)) +
                 Bytes(result.robust).size();
    ReputationTracker tracker(Config().robust.reputation, ChaosFleet::kClients);
    chaos = ParseAt(bytes, reputation, &tracker);
    EXPECT_EQ(FindOnce(bytes, Bytes(result.chaos)), chaos);
    // Re-written sections splice back into the same bytes.
    EXPECT_TRUE(Splice(faults, cohort, Bytes(injector)) == bytes);
    EXPECT_TRUE(Splice(provenance, params, Bytes(records)) == bytes);
    EXPECT_TRUE(Splice(reputation, chaos, Bytes(tracker)) == bytes);
  }

  // The state with [begin, end) replaced by `section`.
  std::vector<uint8_t> Splice(size_t begin, size_t end,
                              const std::vector<uint8_t>& section) const {
    std::vector<uint8_t> out(bytes.begin(), bytes.begin() + begin);
    out.insert(out.end(), section.begin(), section.end());
    out.insert(out.end(), bytes.begin() + end, bytes.end());
    return out;
  }

  // The first id of the client list.
  int32_t FirstListedClient() const {
    int32_t id = 0;
    std::memcpy(&id, bytes.data() + clients + sizeof(uint64_t), sizeof(id));
    return id;
  }

  // What loading `crafted` into a fresh trainer returns.
  std::string Load(const std::vector<uint8_t>& crafted) const {
    Trainer victim = fleet.MakeTrainer(Config());
    util::ByteReader reader(crafted);
    const util::Status status = victim.LoadState(&reader);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    return status.message();
  }

  const ChaosFleet fleet;
  Trainer trainer;
  std::vector<uint8_t> bytes;
  ProvenanceMap records;
  size_t faults = 0;      // the injector is [faults, cohort)
  size_t cohort = 0;      // then the cohort and the participation bits
  size_t provenance = 0;  // the provenance map is [provenance, params)
  size_t params = 0;
  size_t clients = 0;     // the client list, from its count
  size_t reputation = 0;  // the tracker is [reputation, chaos)
  size_t chaos = 0;
};

TEST(TrainerStateCorruptionTest, VersionFiveStreamIsRejected) {
  const CohortState state;
  std::vector<uint8_t> crafted = state.bytes;
  const uint32_t version = 5;
  std::memcpy(crafted.data(), &version, sizeof(version));
  EXPECT_EQ(state.Load(crafted), "unsupported trainer state version");
}

TEST(TrainerStateCorruptionTest, ClientIdOutsideTheFleetIsRejected) {
  const CohortState state;
  std::vector<uint8_t> crafted = state.bytes;
  const int32_t id = ChaosFleet::kClients;
  std::memcpy(crafted.data() + state.clients + sizeof(uint64_t), &id,
              sizeof(id));
  EXPECT_EQ(state.Load(crafted), "snapshot client id out of order or range");
}

TEST(TrainerStateCorruptionTest, ListedClientWithoutProvenanceIsRejected) {
  const CohortState state;
  ProvenanceMap records = state.records;
  ASSERT_EQ(records.erase(state.FirstListedClient()), 1u);
  EXPECT_EQ(state.Load(state.Splice(state.provenance, state.params,
                                    Bytes(records))),
            "snapshot client has no provenance record");
}

TEST(TrainerStateCorruptionTest, ProvenanceIdOutsideTheFleetIsRejected) {
  const CohortState state;
  ProvenanceMap records = state.records;
  records[ChaosFleet::kClients] = records.begin()->second;
  EXPECT_EQ(state.Load(state.Splice(state.provenance, state.params,
                                    Bytes(records))),
            "snapshot provenance record malformed");
}

TEST(TrainerStateCorruptionTest, DistributionOfTheWrongLengthIsRejected) {
  const CohortState state;
  ProvenanceMap records = state.records;
  records.rbegin()->second.dist.pop_back();
  EXPECT_EQ(state.Load(state.Splice(state.provenance, state.params,
                                    Bytes(records))),
            "snapshot provenance record malformed");
}

TEST(TrainerStateCorruptionTest, FaultIdOutsideTheFleetIsRejected) {
  const CohortState state;
  net::FaultConfig config;
  config.straggler_prob = 1.0;
  net::FaultInjector injector(config);
  injector.BeginEpoch(ChaosFleet::kClients + 1);  // K straggles too
  EXPECT_EQ(state.Load(state.Splice(state.faults, state.cohort,
                                    Bytes(injector))),
            "snapshot fault client ids malformed");
}

TEST(TrainerStateCorruptionTest, ReputationIdOutsideTheFleetIsRejected) {
  const CohortState state;
  ReputationTracker tracker(CohortState::Config().robust.reputation,
                            ChaosFleet::kClients + 1);
  tracker.ReportFlagged(ChaosFleet::kClients);
  EXPECT_EQ(state.Load(state.Splice(state.reputation, state.chaos,
                                    Bytes(tracker))),
            "reputation record id out of range");
}

}  // namespace
}  // namespace fedmigr::fl
