// Flight-recorder container and recorder semantics: FJRN framing, the
// recorder's commit/seal lifecycle, torn-tail tolerance, the Attach()
// resume-truncation contract, the deterministic client sampler, and the
// running summary's agreement with the event stream.

#include "obs/journal.h"

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/file.h"
#include "util/frame.h"
#include "util/serial.h"
#include "util/status.h"

namespace fedmigr::obs {
namespace {

std::string TempPath(const std::string& name) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/" + name;
}

JournalHeader TestHeader() {
  JournalHeader header;
  header.run_seed = 42;
  header.num_clients = 10;
  header.cohort_size = 4;
  header.scheme = "journal-test";
  return header;
}

// One epoch's fixed event mix, touching every summary field at least once.
EventBuffer EpochEvents(int epoch) {
  EventBuffer events;
  events.RoundBegin(epoch, /*active=*/4, /*available=*/3, /*lineage=*/epoch);
  events.CohortSampled(epoch, /*cohort_size=*/4, /*carryover=*/1);
  events.ClientDeparted(epoch, 9);
  events.ClientCarriedOver(epoch, 8);
  events.ChurnAbsence(epoch, 7);
  events.ModelDistributed(epoch, 1, epoch);
  events.ClientParticipated(epoch, 1, /*lan=*/0, epoch, /*loss=*/0.5);
  events.ClientUploaded(epoch, 1, UploadStatus::kArrived, epoch);
  events.ScreenVerdict(epoch, 1, /*flagged=*/false);
  events.QuarantineTransition(epoch, 2, /*from_state=*/1,
                              /*to_state=*/kJournalStateQuarantined);
  events.QuorumCommit(epoch, /*arrivals=*/3, /*required=*/2);
  events.QuorumMiss(epoch, /*arrivals=*/1, /*required=*/2);
  events.ModelPublished(epoch, /*lineage=*/epoch + 1, /*parent=*/epoch);
  events.MigrationHop(epoch, 1, 2, MigrationRoute::kC2C, epoch);
  events.MigrationHop(epoch, 3, 4, MigrationRoute::kServerFallback, epoch);
  events.MigrationHop(epoch, 5, 6, MigrationRoute::kRolledBack, epoch);
  events.ChaosLanSealed(epoch, 0);
  events.ChaosLanOpened(epoch, 0);
  events.RoundCommitted(epoch, /*participating=*/3, /*published=*/true,
                        /*lineage=*/epoch + 1, /*train_loss=*/0.25);
  return events;
}

// Drives the recorder through epochs [first_epoch, last_epoch].
void RecordEpochs(Journal* journal, int first_epoch, int last_epoch) {
  for (int epoch = first_epoch; epoch <= last_epoch; ++epoch) {
    ASSERT_TRUE(journal->CommitEpoch(epoch, EpochEvents(epoch).events()).ok());
  }
}

// One fully sealed in-memory journal image.
std::vector<uint8_t> SealedImage(int epochs) {
  Journal journal(Journal::Options{});
  EXPECT_TRUE(journal.Attach(0).ok());
  journal.BeginRun(TestHeader());
  RecordEpochs(&journal, 1, epochs);
  EXPECT_TRUE(journal.EndRun().ok());
  return journal.memory_image();
}

// Wraps `payload` in the FJRN frame the journal writes ("FJRN" magic, the
// journal version, the payload size, the payload and its CRC).
std::vector<uint8_t> FrameJournalChunk(const std::vector<uint8_t>& payload) {
  constexpr uint32_t kFjrnMagic = 0x4E524A46u;
  util::ByteWriter writer;
  util::BeginFrame(kFjrnMagic, kJournalVersion, payload.size(), &writer);
  writer.Io(std::span<const uint8_t>(payload));
  return util::SealFrame(&writer);
}

TEST(JournalFramingTest, FrameRoundTrips) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> framed = FrameJournalChunk(payload);
  size_t consumed = 0;
  util::Result<std::vector<uint8_t>> back =
      UnframeJournalChunk(framed.data(), framed.size(), &consumed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  EXPECT_EQ(consumed, framed.size());
}

TEST(JournalFramingTest, EveryFlippedByteIsRejected) {
  const std::vector<uint8_t> framed = FrameJournalChunk({10, 20, 30});
  for (size_t i = 0; i < framed.size(); ++i) {
    std::vector<uint8_t> corrupt = framed;
    corrupt[i] ^= 0x01;
    size_t consumed = 0;
    const util::Result<std::vector<uint8_t>> back =
        UnframeJournalChunk(corrupt.data(), corrupt.size(), &consumed);
    EXPECT_FALSE(back.ok()) << "flip at byte " << i;
  }
}

TEST(JournalFramingTest, EveryTruncationIsRejected) {
  const std::vector<uint8_t> framed = FrameJournalChunk({10, 20, 30});
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    size_t consumed = 0;
    const util::Result<std::vector<uint8_t>> back =
        UnframeJournalChunk(framed.data(), cut, &consumed);
    EXPECT_FALSE(back.ok()) << "cut at " << cut;
  }
}

TEST(JournalRecorderTest, SealedImageParsesBackCompletely) {
  const std::vector<uint8_t> image = SealedImage(/*epochs=*/3);
  util::Result<JournalContents> contents = ParseJournal(image);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(contents->has_header);
  EXPECT_EQ(contents->header.run_seed, 42u);
  EXPECT_EQ(contents->header.num_clients, 10);
  EXPECT_EQ(contents->header.cohort_size, 4);
  EXPECT_EQ(contents->header.scheme, "journal-test");
  EXPECT_EQ(contents->committed_epochs, (std::vector<int32_t>{1, 2, 3}));
  EXPECT_EQ(contents->torn_tail_bytes, 0u);

  ASSERT_TRUE(contents->has_summary);
  const JournalSummary& s = contents->summary;
  EXPECT_EQ(s.epochs_run, 3);
  EXPECT_EQ(s.migrations_planned, 9);
  EXPECT_EQ(s.migrations_completed, 3);
  EXPECT_EQ(s.migration_fallbacks, 3);
  EXPECT_EQ(s.migrations_rolled_back, 3);
  EXPECT_EQ(s.quorum_commits, 3);
  EXPECT_EQ(s.quorum_misses, 3);
  EXPECT_EQ(s.carryover_clients, 3);
  EXPECT_EQ(s.churn_absences, 3);
  EXPECT_EQ(s.churn_departures, 3);
  EXPECT_EQ(s.quarantines, 3);
  EXPECT_EQ(s.model_publishes, 3);
}

TEST(JournalRecorderTest, RunningSummaryMatchesEventDerivation) {
  Journal journal(Journal::Options{});
  ASSERT_TRUE(journal.Attach(0).ok());
  journal.BeginRun(TestHeader());
  RecordEpochs(&journal, 1, 2);
  const util::Result<JournalContents> contents =
      ParseJournal(journal.memory_image());
  ASSERT_TRUE(contents.ok());
  const JournalSummary derived = SummarizeJournalEvents(contents->events);
  const JournalSummary& running = journal.running_summary();
  EXPECT_EQ(running.epochs_run, derived.epochs_run);
  EXPECT_EQ(running.migrations_planned, derived.migrations_planned);
  EXPECT_EQ(running.migrations_completed, derived.migrations_completed);
  EXPECT_EQ(running.migration_fallbacks, derived.migration_fallbacks);
  EXPECT_EQ(running.migrations_rolled_back, derived.migrations_rolled_back);
  EXPECT_EQ(running.quorum_commits, derived.quorum_commits);
  EXPECT_EQ(running.quorum_misses, derived.quorum_misses);
  EXPECT_EQ(running.carryover_clients, derived.carryover_clients);
  EXPECT_EQ(running.churn_absences, derived.churn_absences);
  EXPECT_EQ(running.churn_departures, derived.churn_departures);
  EXPECT_EQ(running.quarantines, derived.quarantines);
  EXPECT_EQ(running.model_publishes, derived.model_publishes);
}

TEST(JournalRecorderTest, UncommittedEventsStayOutOfTheImage) {
  Journal journal(Journal::Options{});
  ASSERT_TRUE(journal.Attach(0).ok());
  journal.BeginRun(TestHeader());
  RecordEpochs(&journal, 1, 1);
  const size_t committed_size = journal.memory_image().size();
  const int64_t committed_events = journal.events_committed();
  EventBuffer pending = EpochEvents(2);  // recorded, never committed
  EXPECT_FALSE(pending.events().empty());
  EXPECT_EQ(journal.events_committed(), committed_events);
  EXPECT_EQ(journal.memory_image().size(), committed_size);
}

TEST(JournalTornTailTest, TruncationAnywhereKeepsACommittedPrefix) {
  const std::vector<uint8_t> image = SealedImage(/*epochs=*/4);
  const util::Result<JournalContents> full = ParseJournal(image);
  ASSERT_TRUE(full.ok());
  // A kill mid-append tears the file at an arbitrary byte: every prefix
  // must parse into a clean run prefix — whole committed epochs in order,
  // the remainder reported as torn, never an error or a crash.
  for (size_t cut = 0; cut <= image.size();
       cut += std::max<size_t>(1, image.size() / 211)) {
    const std::vector<uint8_t> torn(image.begin(),
                                    image.begin() + static_cast<long>(cut));
    const util::Result<JournalContents> contents = ParseJournal(torn);
    ASSERT_TRUE(contents.ok()) << "cut at " << cut;
    const size_t kept = contents->committed_epochs.size();
    ASSERT_LE(kept, full->committed_epochs.size());
    for (size_t i = 0; i < kept; ++i) {
      EXPECT_EQ(contents->committed_epochs[i], full->committed_epochs[i]);
    }
    EXPECT_LE(contents->torn_tail_bytes, torn.size());
  }
}

TEST(JournalTornTailTest, GarbageTailIsReportedNotFatal) {
  std::vector<uint8_t> image = SealedImage(/*epochs=*/2);
  const size_t clean_size = image.size();
  for (int i = 0; i < 37; ++i) {
    image.push_back(static_cast<uint8_t>(0xA0 + i));
  }
  const util::Result<JournalContents> contents = ParseJournal(image);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->committed_epochs, (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(contents->torn_tail_bytes, image.size() - clean_size);
}

TEST(JournalAttachTest, ResumeTruncatesPastTheResumeEpoch) {
  const std::string path = TempPath("fedmigr-journal-attach-test.fjrn");
  (void)util::RemoveFile(path);
  {
    Journal journal({path, 1.0});
    ASSERT_TRUE(journal.Attach(0).ok());
    journal.BeginRun(TestHeader());
    RecordEpochs(&journal, 1, 3);
    ASSERT_TRUE(journal.EndRun().ok());
  }
  // Resume after epoch 2: epoch 3's chunk and the summary are dropped; the
  // header and epochs {1, 2} survive, and the running summary is re-primed
  // from the kept events.
  {
    Journal journal({path, 1.0});
    ASSERT_TRUE(journal.Attach(2).ok());
    EXPECT_TRUE(journal.header_written());
    EXPECT_EQ(journal.running_summary().epochs_run, 2);
    EXPECT_EQ(journal.running_summary().migrations_planned, 6);
  }
  const util::Result<JournalContents> contents = ReadJournalFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->has_header);
  EXPECT_FALSE(contents->has_summary);
  EXPECT_EQ(contents->committed_epochs, (std::vector<int32_t>{1, 2}));

  // A fresh start (resume_epoch 0) truncates to empty.
  {
    Journal journal({path, 1.0});
    ASSERT_TRUE(journal.Attach(0).ok());
    EXPECT_FALSE(journal.header_written());
  }
  const util::Result<std::vector<uint8_t>> bytes = util::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(bytes->empty());
  (void)util::RemoveFile(path);
}

TEST(JournalAttachTest, ResumeAfterTornTailKeepsTheValidPrefix) {
  const std::string path = TempPath("fedmigr-journal-torn-attach-test.fjrn");
  (void)util::RemoveFile(path);
  {
    Journal journal({path, 1.0});
    ASSERT_TRUE(journal.Attach(0).ok());
    journal.BeginRun(TestHeader());
    RecordEpochs(&journal, 1, 2);
    ASSERT_TRUE(journal.Finish().ok());
  }
  // Simulate a crash mid-append: a torn half-frame after the last commit.
  util::Result<std::vector<uint8_t>> bytes = util::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> torn = *bytes;
  torn.insert(torn.end(), {0x46, 0x4A, 0x52, 0x4E, 0x01, 0x00});
  ASSERT_TRUE(util::AtomicWriteFile(path, torn).ok());

  Journal journal({path, 1.0});
  ASSERT_TRUE(journal.Attach(2).ok());
  EXPECT_TRUE(journal.header_written());
  EXPECT_EQ(journal.running_summary().epochs_run, 2);
  // The torn bytes are gone from disk; the file is the clean prefix again.
  const util::Result<std::vector<uint8_t>> after = util::ReadFileBytes(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *bytes);
  (void)util::RemoveFile(path);
}

TEST(JournalSamplingTest, VerdictIsPureInClientAndRate) {
  const Journal half(Journal::Options{"", 0.5});
  const Journal twin(Journal::Options{"", 0.5});
  int sampled = 0;
  for (int client = 0; client < 4096; ++client) {
    EXPECT_EQ(half.SampledClient(client), twin.SampledClient(client));
    if (half.SampledClient(client)) ++sampled;
  }
  // The splitmix64 hash keeps the hit rate near the target.
  EXPECT_GT(sampled, 4096 / 2 - 300);
  EXPECT_LT(sampled, 4096 / 2 + 300);

  const Journal all(Journal::Options{"", 1.0});
  const Journal none(Journal::Options{"", 0.0});
  for (int client : {0, 1, 17, 100000}) {
    EXPECT_TRUE(all.SampledClient(client));
    EXPECT_FALSE(none.SampledClient(client));
  }
}

TEST(JournalSamplingTest, ReconciliationKindsAreNeverSampled) {
  // sample_rate 0 thins the client-detail kinds to nothing, but the
  // summary-bearing kinds still record — totals stay exact.
  Journal journal(Journal::Options{"", 0.0});
  ASSERT_TRUE(journal.Attach(0).ok());
  journal.BeginRun(TestHeader());
  RecordEpochs(&journal, 1, 1);
  const util::Result<JournalContents> contents =
      ParseJournal(journal.memory_image());
  ASSERT_TRUE(contents.ok());
  int detail = 0;
  for (const JournalEvent& event : contents->events) {
    const auto kind = static_cast<JournalEventKind>(event.kind);
    if (kind == JournalEventKind::kModelDistributed ||
        kind == JournalEventKind::kClientParticipated ||
        kind == JournalEventKind::kClientUploaded ||
        kind == JournalEventKind::kScreenVerdict) {
      ++detail;
    }
  }
  EXPECT_EQ(detail, 0);
  const JournalSummary derived = SummarizeJournalEvents(contents->events);
  EXPECT_EQ(derived.migrations_planned, 3);
  EXPECT_EQ(derived.quorum_commits, 1);
  EXPECT_EQ(derived.quarantines, 1);
  EXPECT_EQ(derived.model_publishes, 1);
}

}  // namespace
}  // namespace fedmigr::obs
