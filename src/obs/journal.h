// Deterministic flight recorder: an append-only, CRC32-framed binary
// journal of the run's event stream (obs/events.h) — which client, when,
// and where its model came from, where the obs metrics registry (DESIGN.md
// §11) answers "how many". The trainer records and folds its events whether
// or not a journal is attached; the journal only persists them.
//
// Container format: a sequence of independently framed chunks,
//
//   [u32 magic "FJRN"][u32 version][u64 payload_size][payload][u32 crc32]
//
// little-endian, CRC over every preceding byte of the frame (the same
// discipline as the FSNP snapshot container, core/snapshot.h). The payload
// starts with a u8 chunk kind: one header chunk (run identity), one epoch
// chunk per committed epoch (that epoch's events), and one summary chunk
// (counter totals) on clean completion.
//
// The event stream is identical across thread settings (obs/events.h), so
// the journal is byte-identical across them too.
//
// Crash consistency: chunks are appended through util::AppendFile; a kill
// at any instant tears at most the final frame. Attach(resume_epoch)
// validates the existing file frame by frame and truncates everything past
// the last epoch chunk whose epoch is <= resume_epoch (torn tails, frames
// from epochs the resumed run will replay, and any summary), so a killed
// run resumed from a snapshot (core/snapshot.h) replays to a byte-equal
// journal.
//
// Scale bound: records are fixed-size, client-level detail exists only for
// the materialized cohort, and Options::sample_rate thins it further at
// persist time (the kinds the summary counts are never sampled).
//
// Lineage: ModelStore::Publish is the only mint site (serial, monotonic
// ids), so every CoW block carries the lineage id of the publish it was
// cloned from; migration hops move that id between clients and the journal
// records each hop as a DAG edge. tools/fedmigr_report renders the DAG and
// tools/check_journal.py re-derives every counter total from the events.

#ifndef FEDMIGR_OBS_JOURNAL_H_
#define FEDMIGR_OBS_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.h"
#include "util/file.h"
#include "util/serial.h"
#include "util/status.h"

namespace fedmigr::obs {

// Run identity, written once as the first chunk.
struct JournalHeader {
  uint64_t run_seed = 0;
  int64_t num_clients = 0;
  int64_t cohort_size = 0;  // 0 = legacy full-participation mode
  double sample_rate = 1.0;
  std::string scheme;

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(run_seed);
    ar.Io(num_clients);
    ar.Io(cohort_size);
    ar.Io(sample_rate);
    ar.Io(scheme);
    return ar.status();
  }
};

// End-of-run counter totals, written on clean completion: FoldEvent over
// the events this journal persisted (rebuilt from the kept chunks on
// Attach), so every field re-derives exactly from the file's own event
// stream; tools/check_journal.py verifies that, and bench_chaos reconciles
// the totals against the trainer's ChaosCounters, folded by the same
// function from the same stream.
struct JournalSummary {
  int64_t epochs_run = 0;              // #kRoundCommit
  int64_t migrations_planned = 0;      // sum of the three routes
  int64_t migrations_completed = 0;    // #kMigrationC2C
  int64_t migration_fallbacks = 0;     // #kMigrationFallback
  int64_t migrations_rolled_back = 0;  // #kMigrationRolledBack
  int64_t quorum_commits = 0;          // #kQuorumCommit
  int64_t quorum_misses = 0;           // #kQuorumMiss
  int64_t carryover_clients = 0;       // #kClientCarriedOver
  int64_t churn_absences = 0;          // #kChurnAbsence
  int64_t churn_departures = 0;        // #kClientDeparted
  int64_t quarantines = 0;             // #transitions into quarantined
  int64_t model_publishes = 0;         // #kModelPublished

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(epochs_run);
    ar.Io(migrations_planned);
    ar.Io(migrations_completed);
    ar.Io(migration_fallbacks);
    ar.Io(migrations_rolled_back);
    ar.Io(quorum_commits);
    ar.Io(quorum_misses);
    ar.Io(carryover_clients);
    ar.Io(churn_absences);
    ar.Io(churn_departures);
    ar.Io(quarantines);
    ar.Io(model_publishes);
    return ar.status();
  }
};

// --- Wire serializers ------------------------------------------------------
// One-line entry points into each record's Visit; the journal-emit lint rule
// keeps them (and the FJRN framer) inside src/obs. The record layouts are
// owned by kJournalVersion and pinned by the schema-digest test.

// Bumped whenever a journal record layout changes.
inline constexpr uint32_t kJournalVersion = 1;

void WriteJournalEvent(const JournalEvent& event, util::ByteWriter* writer);
util::Status ReadJournalEvent(util::ByteReader* reader, JournalEvent* event);

void WriteJournalHeader(const JournalHeader& header, util::ByteWriter* writer);
util::Status ReadJournalHeader(util::ByteReader* reader,
                               JournalHeader* header);

void WriteJournalSummary(const JournalSummary& summary,
                         util::ByteWriter* writer);
util::Status ReadJournalSummary(util::ByteReader* reader,
                                JournalSummary* summary);

// Validates the frame at the start of `data` and returns its payload;
// `*consumed` receives the framed size. Truncation, bad magic/version and
// CRC mismatch come back as Status errors (never a crash).
util::Result<std::vector<uint8_t>> UnframeJournalChunk(const uint8_t* data,
                                                       size_t size,
                                                       size_t* consumed);

// --- Recorder -------------------------------------------------------------

class Journal {
 public:
  struct Options {
    // Journal file path; empty records into an in-memory buffer (tests).
    std::string path;
    // Probability a client gets its client-detail events
    // (kModelDistributed / kClientParticipated / kClientUploaded /
    // kScreenVerdict) persisted. 1.0 records everyone; the filter is a pure
    // hash of the client id, so it is deterministic and stable across runs,
    // thread counts and resume.
    double sample_rate = 1.0;
  };

  explicit Journal(Options options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Prepares the journal for a run that resumes after `resume_epoch`
  // completed epochs (0 = fresh start). File mode: validates the existing
  // file and truncates past the last epoch chunk with epoch <=
  // resume_epoch; a fresh start truncates to empty. An unattached journal
  // persists nothing: every call below returns at once.
  util::Status Attach(int resume_epoch);
  bool attached() const { return attached_; }
  // True once a header chunk is on disk (survives resume truncation).
  bool header_written() const { return header_written_; }

  // Deterministic per-client sampling verdict for the client-detail kinds.
  bool SampledClient(int client) const;

  // Appends the header chunk unless one is already on disk.
  void BeginRun(const JournalHeader& header);
  // Persists one committed epoch: drops the client-detail events of
  // unsampled clients, folds the rest into the running summary, and
  // appends them as one epoch chunk. Every event must carry `epoch`.
  util::Status CommitEpoch(int epoch, const std::vector<JournalEvent>& events);
  // Appends the running-summary chunk and makes the whole journal durable.
  util::Status EndRun();
  // Fsync without a summary (interrupt path).
  util::Status Finish();

  // Totals of every event persisted so far (including events replayed from
  // the kept chunks at Attach time).
  JournalSummary running_summary() const;

  // Events committed to chunks so far (excludes header/summary).
  int64_t events_committed() const { return events_committed_; }

  // In-memory journal image; meaningful only when Options::path is empty.
  const std::vector<uint8_t>& memory_image() const { return memory_; }

 private:
  // Seals a chunk begun with its frame header and appends it.
  util::Status AppendChunk(util::ByteWriter* chunk);

  Options options_;
  bool attached_ = false;
  bool header_written_ = false;
  EventCounts folded_;
  int64_t events_committed_ = 0;
  util::AppendFile file_;
  std::vector<uint8_t> memory_;
};

// --- Reader ---------------------------------------------------------------

// Fully parsed journal. `events` preserves commit order; a torn tail after
// the last valid frame is reported via `torn_tail_bytes` rather than an
// error, matching the resume contract.
struct JournalContents {
  bool has_header = false;
  JournalHeader header;
  bool has_summary = false;
  JournalSummary summary;
  std::vector<int32_t> committed_epochs;
  std::vector<JournalEvent> events;
  uint64_t torn_tail_bytes = 0;
};

util::Result<JournalContents> ParseJournal(const std::vector<uint8_t>& bytes);
util::Result<JournalContents> ReadJournalFile(const std::string& path);

// Re-derives a JournalSummary from the event stream by FoldEvent (the
// reconciliation half used by bench_chaos and the tests).
JournalSummary SummarizeJournalEvents(const std::vector<JournalEvent>& events);

}  // namespace fedmigr::obs

#endif  // FEDMIGR_OBS_JOURNAL_H_
