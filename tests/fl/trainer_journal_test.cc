// Trainer-level flight-recorder contracts: the journal and the serialized
// state are byte-identical across inter-client pool widths, a
// kill-anywhere resume replays to a byte-equal journal (including over a
// torn tail), the recorded lineage forms an acyclic DAG whose hops only
// reference minted blocks, a quarantined client's lineage terminates (no
// accepted uploads while quarantined), client-level detail stays bounded by
// the cohort — not the fleet — at 100k clients, and the run counters come
// out the same whether a journal is attached, detached or toggled.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/policies.h"
#include "fl/robust.h"
#include "fl/schemes.h"
#include "fl/trainer.h"
#include "golden_fleets.h"
#include "net/sim_topologies.h"
#include "net/topology.h"
#include "nn/zoo.h"
#include "obs/journal.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::fl {
namespace {

std::string TempPath(const std::string& name) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/" + name;
}

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

// A scheme exercising every journaled stream: migrations, dropout, faults
// (stragglers, corruption) and periodic aggregation.
SchemeSetup EventfulScheme() {
  SchemeSetup setup = MakeRandMigr(/*agg_period=*/2);
  setup.config.max_epochs = 6;
  setup.config.eval_every = 2;
  setup.config.seed = 77;
  setup.config.dropout_prob = 0.1;
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

// Full run with an in-memory journal; returns the sealed journal image.
std::vector<uint8_t> RunWithMemoryJournal(TinyWorkload* w, SchemeSetup setup) {
  obs::Journal journal(obs::Journal::Options{});
  EXPECT_TRUE(journal.Attach(0).ok());
  Trainer trainer = w->MakeTrainer(std::move(setup));
  trainer.SetJournal(&journal);
  const RunResult result = trainer.Run();
  EXPECT_FALSE(result.interrupted);
  return journal.memory_image();
}

TEST(TrainerJournalTest, JournalBytesIdenticalAcrossThreadSettings) {
  SchemeSetup reference_setup = EventfulScheme();
  reference_setup.config.num_threads = 2;
  TinyWorkload w;
  const std::vector<uint8_t> reference =
      RunWithMemoryJournal(&w, std::move(reference_setup));
  ASSERT_FALSE(reference.empty());

  for (int pool : {1, 4}) {
    SchemeSetup setup = EventfulScheme();
    setup.config.num_threads = pool;
    TinyWorkload twin;
    const std::vector<uint8_t> got =
        RunWithMemoryJournal(&twin, std::move(setup));
    EXPECT_EQ(got, reference) << "pool=" << pool;
  }
}

// A full-participation run's serialized state, with client updates on the
// inter-client pool and evaluation on the main thread, is the same bytes at
// pool widths 1 and 4. The kill-and-resume harness and every
// FedMigr-vs-FedAvg comparison rest on it; under the `tsan` preset it is
// the race gate for the trainer's pool.
TEST(TrainerPoolWidthTest, StateBytesIdenticalAcrossInterClientPoolWidths) {
  auto run = [](int num_threads) {
    SchemeSetup setup = MakeRandMigr(/*agg_period=*/2);
    setup.config.max_epochs = 4;
    setup.config.eval_every = 2;
    setup.config.seed = 42;
    setup.config.num_threads = num_threads;
    TinyWorkload w;
    Trainer trainer = w.MakeTrainer(std::move(setup));
    EXPECT_FALSE(trainer.Run().interrupted);
    return StateBytes(trainer);
  };
  const std::vector<uint8_t> one = run(1);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, run(4));
}

TEST(TrainerJournalTest, KillAnywhereResumeReplaysToByteEqualJournal) {
  TinyWorkload w;

  // Reference: the uninterrupted, sealed journal.
  const std::string ref_path = TempPath("fedmigr-trainer-journal-ref.fjrn");
  (void)util::RemoveFile(ref_path);
  {
    obs::Journal journal({ref_path, 1.0});
    ASSERT_TRUE(journal.Attach(0).ok());
    Trainer reference = w.MakeTrainer(EventfulScheme());
    reference.SetJournal(&journal);
    const RunResult result = reference.Run();
    EXPECT_FALSE(result.interrupted);
  }
  const util::Result<std::vector<uint8_t>> ref_bytes =
      util::ReadFileBytes(ref_path);
  ASSERT_TRUE(ref_bytes.ok());

  const std::string path = TempPath("fedmigr-trainer-journal-resume.fjrn");
  for (int kill_epoch : {2, 3, 5}) {
    (void)util::RemoveFile(path);

    // Killed: the hook stops the run after `kill_epoch`; the journal holds
    // exactly the committed epochs (Finish, no summary).
    std::vector<uint8_t> mid_bytes;
    {
      obs::Journal journal({path, 1.0});
      ASSERT_TRUE(journal.Attach(0).ok());
      Trainer killed = w.MakeTrainer(EventfulScheme());
      killed.SetJournal(&journal);
      killed.SetEpochHook([kill_epoch](const Trainer&, int epoch) {
        return epoch < kill_epoch;
      });
      const RunResult result = killed.Run();
      EXPECT_TRUE(result.interrupted);
      mid_bytes = StateBytes(killed);
    }

    // The documented crash mode: a torn half-frame after the last commit.
    {
      util::Result<std::vector<uint8_t>> bytes = util::ReadFileBytes(path);
      ASSERT_TRUE(bytes.ok());
      bytes->insert(bytes->end(), {0x46, 0x4A, 0x52, 0x4E, 0x01});
      ASSERT_TRUE(util::AtomicWriteFile(path, *bytes).ok());
    }

    // Resumed: a fresh trainer loads the snapshot state; the journal
    // attaches at the resume epoch, truncating the torn tail, and the run
    // completes to a sealed journal.
    {
      obs::Journal journal({path, 1.0});
      ASSERT_TRUE(journal.Attach(kill_epoch).ok());
      Trainer resumed = w.MakeTrainer(EventfulScheme());
      util::ByteReader reader(mid_bytes);
      ASSERT_TRUE(resumed.LoadState(&reader).ok());
      resumed.SetJournal(&journal);
      const RunResult result = resumed.Run();
      EXPECT_FALSE(result.interrupted);
    }

    const util::Result<std::vector<uint8_t>> got = util::ReadFileBytes(path);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *ref_bytes) << "kill at " << kill_epoch;
  }
  (void)util::RemoveFile(ref_path);
  (void)util::RemoveFile(path);
}

TEST(TrainerJournalTest, LineageIsAnAcyclicDagOverMintedBlocks) {
  TinyWorkload w;
  const std::vector<uint8_t> image =
      RunWithMemoryJournal(&w, EventfulScheme());
  const util::Result<obs::JournalContents> contents =
      obs::ParseJournal(image);
  ASSERT_TRUE(contents.ok());

  // Lineage id 1 is the store's construction-time mint, before the journal
  // opens; everything else must be minted by an earlier publish event.
  std::set<uint64_t> minted = {1};
  int64_t last_minted = 1;
  int publishes = 0;
  int hops = 0;
  for (const obs::JournalEvent& event : contents->events) {
    const auto kind = static_cast<obs::JournalEventKind>(event.kind);
    switch (kind) {
      case obs::JournalEventKind::kModelPublished:
        // Strictly increasing mints with parent < child: acyclic by
        // construction, and the parent is always an existing node.
        EXPECT_GT(static_cast<int64_t>(event.u), last_minted);
        EXPECT_LT(event.v, event.u);
        EXPECT_TRUE(minted.count(event.v) == 1) << "parent " << event.v;
        minted.insert(event.u);
        last_minted = static_cast<int64_t>(event.u);
        ++publishes;
        break;
      case obs::JournalEventKind::kMigrationC2C:
      case obs::JournalEventKind::kMigrationFallback:
      case obs::JournalEventKind::kMigrationRolledBack:
        // A hop moves a block that exists.
        EXPECT_TRUE(minted.count(event.u) == 1)
            << "hop lineage " << event.u << " at epoch " << event.epoch;
        ++hops;
        break;
      case obs::JournalEventKind::kRoundBegin:
      case obs::JournalEventKind::kModelDistributed:
        EXPECT_TRUE(minted.count(event.u) == 1)
            << "lineage " << event.u << " at epoch " << event.epoch;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(publishes, 0);
  EXPECT_GT(hops, 0);
}

TEST(TrainerJournalTest, QuarantinedClientLineageTerminates) {
  // Persistent sign-flip attackers under the defense profile: once a
  // client transitions into quarantine, the server accepts nothing more
  // from it until (if ever) it is paroled — in the event stream, no
  // kArrived upload may appear while its state is quarantined.
  TinyWorkload w;
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = 10;
  setup.config.eval_every = 10;
  setup.config.seed = 77;
  setup.config.fault.attack_mode = net::AttackMode::kSignFlip;
  setup.config.fault.attack_fraction = 0.2;
  setup.config.fault.seed = 13;
  ASSERT_TRUE(ParseRobustProfile("defense", &setup.config.robust));

  const std::vector<uint8_t> image =
      RunWithMemoryJournal(&w, std::move(setup));
  const util::Result<obs::JournalContents> contents =
      obs::ParseJournal(image);
  ASSERT_TRUE(contents.ok());

  std::map<int32_t, bool> quarantined;  // client -> currently quarantined
  int transitions_in = 0;
  int excluded_uploads = 0;
  for (const obs::JournalEvent& event : contents->events) {
    const auto kind = static_cast<obs::JournalEventKind>(event.kind);
    if (kind == obs::JournalEventKind::kQuarantineTransition) {
      const bool into = (event.b & 0xFF) == obs::kJournalStateQuarantined;
      quarantined[event.a] = into;
      if (into) ++transitions_in;
    } else if (kind == obs::JournalEventKind::kClientUploaded) {
      const auto status = static_cast<obs::UploadStatus>(event.b);
      if (quarantined[event.a]) {
        EXPECT_NE(status, obs::UploadStatus::kArrived)
            << "client " << event.a << " at epoch " << event.epoch;
        if (status == obs::UploadStatus::kExcludedQuarantined) {
          ++excluded_uploads;
        }
      }
    }
  }
  // The defense actually fired: attackers entered quarantine and their
  // subsequent uploads were refused at the door.
  EXPECT_GT(transitions_in, 0);
  EXPECT_GT(excluded_uploads, 0);
}

// bench_fig6-style synthetic fleet: one shared dataset, every client an
// 8-sample wrapped slice, K = 1e5 with only the cohort materialized.
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

TEST(TrainerJournalScaleTest, RecordCountIsBoundedByTheCohortNotTheFleet) {
  constexpr int kFleet = 100000;
  constexpr int kCohort = 100;
  constexpr int kEpochs = 4;
  BigFleet fleet(kFleet);

  TrainerConfig config;
  config.scheme_name = "journal-scale-test";
  config.max_epochs = kEpochs;
  config.agg_period = 2;
  config.cohort_size = kCohort;
  config.eval_every = 0;
  config.batch_size = 8;
  config.seed = 11;

  obs::Journal journal(obs::Journal::Options{});
  ASSERT_TRUE(journal.Attach(0).ok());
  Trainer trainer = fleet.MakeTrainer(config);
  trainer.SetJournal(&journal);
  const RunResult result = trainer.Run();
  EXPECT_FALSE(result.interrupted);

  // Per epoch, client-level detail covers only the materialized cohort:
  // at most distribute + participate + upload + one migration hop per
  // member, plus a constant handful of round-lifecycle records. Nothing
  // scales with the 100k idle clients.
  const int64_t per_epoch_bound = 6 * kCohort + 16;
  EXPECT_GT(journal.events_committed(), kEpochs);  // it did record
  EXPECT_LE(journal.events_committed(), kEpochs * per_epoch_bound);
  EXPECT_LT(journal.events_committed(), kFleet / 10);
  // The journal image itself stays kilobytes, not fleet-sized.
  EXPECT_LT(journal.memory_image().size(),
            static_cast<size_t>(kEpochs * per_epoch_bound * 64));

  // Sampling thins client detail without touching the reconciliation
  // kinds: the thinned journal still derives the same migration totals.
  obs::Journal sampled_journal(obs::Journal::Options{"", 0.25});
  ASSERT_TRUE(sampled_journal.Attach(0).ok());
  Trainer sampled_trainer = fleet.MakeTrainer(config);
  sampled_trainer.SetJournal(&sampled_journal);
  const RunResult sampled_result = sampled_trainer.Run();
  EXPECT_FALSE(sampled_result.interrupted);
  EXPECT_LT(sampled_journal.events_committed(), journal.events_committed());
  const obs::JournalSummary& full = journal.running_summary();
  const obs::JournalSummary& thin = sampled_journal.running_summary();
  EXPECT_EQ(thin.epochs_run, full.epochs_run);
  EXPECT_EQ(thin.migrations_planned, full.migrations_planned);
  EXPECT_EQ(thin.migrations_completed, full.migrations_completed);
  EXPECT_EQ(thin.model_publishes, full.model_publishes);
}

// Field-for-field equality through the snapshot encoding.
template <class T>
std::vector<uint8_t> Bytes(const T& value) {
  util::ByteWriter writer;
  util::Save(value, &writer);
  return writer.TakeBytes();
}

// The summary chunk a journal sealed equals the fold of its own events.
void ExpectSummaryIsItsOwnFold(const obs::Journal& journal) {
  const util::Result<obs::JournalContents> contents =
      obs::ParseJournal(journal.memory_image());
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_TRUE(contents->has_summary);
  EXPECT_EQ(Bytes(contents->summary),
            Bytes(obs::SummarizeJournalEvents(contents->events)));
}

TEST(TrainerJournalTest, RunCountersDoNotDependOnTheJournal) {
  // The trainer records and folds its events whether or not a journal is
  // attached. The chaos cohort with link failures (server fallbacks and
  // rollbacks) and a Gaussian attack the screen flags into quarantine and
  // back out runs three ways: no journal, a journal throughout, and one
  // toggled per epoch from the hook as bench_telemetry's overhead harness
  // does. The counters must not tell them apart.
  const ChaosFleet fleet;
  TrainerConfig config = ChaosFleet::CohortOfEightConfig();
  config.max_epochs = 16;
  config.cohort_size = 30;
  config.fault.link_failure_prob = 0.3;
  config.fault.max_retries = 1;
  config.fault.attack_mode = net::AttackMode::kGaussianNoise;
  config.fault.attack_fraction = 0.2;
  config.fault.attack_scale = 0.5;
  config.robust.screening.norm_reject_factor = 1.5;
  config.robust.screening.cosine_reject_below = 0.5;
  config.robust.reputation.enabled = true;
  config.robust.reputation.patience = 1;
  config.robust.reputation.quarantine_rounds = 1;

  const RunResult bare = fleet.Run(config);
  EXPECT_GT(bare.chaos.migration_fallbacks, 0);
  EXPECT_GT(bare.chaos.migrations_rolled_back, 0);
  EXPECT_GT(bare.robust.quarantines, 0);
  EXPECT_GT(bare.robust.rehabilitations, 0);
  EXPECT_GT(bare.robust.quarantine_excluded, 0);

  obs::Journal throughout(obs::Journal::Options{});
  ASSERT_TRUE(throughout.Attach(0).ok());
  Trainer journaled = fleet.MakeTrainer(config);
  journaled.SetJournal(&throughout);
  const RunResult with_journal = journaled.Run();

  // Epochs 3, 6, ... run detached; the final epoch (16) is journaled, so
  // the journal is sealed with a summary of the epochs it persisted.
  obs::Journal toggled(obs::Journal::Options{});
  ASSERT_TRUE(toggled.Attach(0).ok());
  Trainer toggling = fleet.MakeTrainer(config);
  toggling.SetJournal(&toggled);
  toggling.SetEpochHook([&](const Trainer&, int epoch) {
    toggling.SetJournal((epoch + 1) % 3 != 0 ? &toggled : nullptr);
    return true;
  });
  const RunResult with_toggled = toggling.Run();

  for (const RunResult* run : {&with_journal, &with_toggled}) {
    EXPECT_EQ(Bytes(run->chaos), Bytes(bare.chaos));
    EXPECT_EQ(Bytes(run->robust), Bytes(bare.robust));
    EXPECT_EQ(run->history.size(), bare.history.size());
  }
  ExpectSummaryIsItsOwnFold(throughout);
  ExpectSummaryIsItsOwnFold(toggled);
  EXPECT_EQ(throughout.running_summary().epochs_run, config.max_epochs);
  EXPECT_EQ(toggled.running_summary().epochs_run, config.max_epochs - 5);
  EXPECT_LT(toggled.events_committed(), throughout.events_committed());
}

}  // namespace
}  // namespace fedmigr::fl
