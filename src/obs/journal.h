// Deterministic flight recorder: an append-only, CRC32-framed binary event
// journal of the semantic decisions a run makes — round lifecycle, cohort
// sampling, per-client participation/upload/screen verdicts, quarantine
// transitions, chaos window edges, quorum commits/misses and every
// migration hop as a causal lineage edge. Where the obs metrics registry
// (DESIGN.md §11) answers "how many", the journal answers "which one,
// when, and where did its model come from".
//
// Container format: a sequence of independently framed chunks,
//
//   [u32 magic "FJRN"][u32 version][u64 payload_size][payload][u32 crc32]
//
// little-endian, CRC over every preceding byte of the frame (the same
// discipline as the FSNP snapshot container, core/snapshot.h). The payload
// starts with a u8 chunk kind: one header chunk (run identity), one epoch
// chunk per committed epoch (the buffered events), and one summary chunk
// (counter totals) on clean completion.
//
// Determinism contract: events are emitted only from the serial sections
// of the trainer loop (never inside ParallelFor), buffered in program
// order, and flushed as one frame per committed epoch — so the journal is
// byte-identical across FEDMIGR_INTRA_OP_THREADS settings and inter-client
// pool widths, and feeds nothing back into simulation state.
//
// Crash consistency: chunks are appended through util::AppendFile; a kill
// at any instant tears at most the final frame. Attach(resume_epoch)
// validates the existing file frame by frame and truncates everything past
// the last epoch chunk whose epoch is <= resume_epoch (torn tails, frames
// from epochs the resumed run will replay, and any summary), so a killed
// run resumed from a snapshot (core/snapshot.h) replays to a byte-equal
// journal.
//
// Scale bound: records are fixed-size, client-level detail is emitted only
// for the materialized cohort, and Options::sample_rate thins the
// client-detail kinds further (reconciliation kinds — migrations, quorum,
// churn, quarantine — are never sampled, so totals stay exact).
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

#include "util/file.h"
#include "util/serial.h"
#include "util/status.h"

namespace fedmigr::obs {

// Semantic event kinds. Values are part of the on-disk format — append
// only, never renumber.
enum class JournalEventKind : uint8_t {
  kRoundBegin = 1,            // a=active, b=available, u=aggregate lineage
  kCohortSampled = 2,         // a=cohort size, b=carryover count
  kClientDeparted = 3,        // a=client (churn: private state discarded)
  kClientCarriedOver = 4,     // a=client (upload carried to a later round)
  kChurnAbsence = 5,          // a=client (sampled member skipped one round)
  kModelDistributed = 6,      // a=client, u=lineage installed
  kClientParticipated = 7,    // a=client, b=lan, u=lineage, x=local loss
  kClientUploaded = 8,        // a=client, b=UploadStatus, u=lineage
  kScreenVerdict = 9,         // a=client, b=1 flagged / 0 clean
  kQuarantineTransition = 10, // a=client, b=(from<<8)|to reputation states
  kQuorumCommit = 11,         // a=arrivals, b=required
  kQuorumMiss = 12,           // a=arrivals, b=required
  kModelPublished = 13,       // u=new lineage, v=parent lineage
  kMigrationC2C = 14,         // a=src, b=dst, u=lineage (direct route)
  kMigrationFallback = 15,    // a=src, b=dst, u=lineage (server re-route)
  kMigrationRolledBack = 16,  // a=src, b=dst, u=lineage (source kept it)
  kChaosLanSealed = 17,       // a=lan
  kChaosLanOpened = 18,       // a=lan
  kChaosServerDown = 19,      //
  kChaosServerUp = 20,        //
  kRoundCommit = 21,          // a=participating, b=published, u=lineage,
                              // x=train loss
};

// Upload outcome recorded in kClientUploaded's `b` field.
enum class UploadStatus : int32_t {
  kArrived = 0,
  kDroppedStraggler = 1,
  kDroppedCorrupt = 2,
  kExcludedQuarantined = 3,
};

// Migration route of a lineage hop; maps 1:1 onto the three migration
// event kinds and the chaos ledger buckets.
enum class MigrationRoute : int32_t {
  kC2C = 0,
  kServerFallback = 1,
  kRolledBack = 2,
};

// Reputation-state numbering used in kQuarantineTransition's packed `b`
// field. Mirrors fl::ReputationState (robust.h); the value below is the
// one the summary's `quarantines` total counts transitions into.
inline constexpr int32_t kJournalStateQuarantined = 2;

// Fixed-size event record (37 bytes on the wire). Field meaning is
// kind-specific, documented on JournalEventKind.
struct JournalEvent {
  uint8_t kind = 0;
  int32_t epoch = 0;
  int32_t a = 0;
  int32_t b = 0;
  uint64_t u = 0;
  uint64_t v = 0;
  double x = 0.0;

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(kind);
    ar.Io(epoch);
    ar.Io(a);
    ar.Io(b);
    ar.Io(u);
    ar.Io(v);
    ar.Io(x);
    return ar.status();
  }
};

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

// End-of-run counter totals, written on clean completion. The recorder
// accumulates them as events are emitted (and rebuilds them from the kept
// chunks on Attach), so every field re-derives exactly from the event
// stream; tools/check_journal.py verifies that, and bench_chaos reconciles
// the totals against the trainer's independent ChaosCounters.
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

// Wraps a chunk payload in the FJRN frame.
std::vector<uint8_t> FrameJournalChunk(const std::vector<uint8_t>& payload);

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
    // Probability a client outside the always-recorded kinds gets
    // client-detail events (kModelDistributed / kClientParticipated /
    // kClientUploaded / kScreenVerdict). 1.0 records everyone; the filter
    // is a pure hash of the client id, so it is deterministic and stable
    // across runs, thread counts and resume.
    double sample_rate = 1.0;
  };

  explicit Journal(Options options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Prepares the journal for a run that resumes after `resume_epoch`
  // completed epochs (0 = fresh start). File mode: validates the existing
  // file and truncates past the last epoch chunk with epoch <=
  // resume_epoch; a fresh start truncates to empty.
  util::Status Attach(int resume_epoch);
  bool attached() const { return attached_; }
  // True once a header chunk is on disk (survives resume truncation).
  bool header_written() const { return header_written_; }

  double sample_rate() const { return options_.sample_rate; }
  // Deterministic per-client sampling verdict for the client-detail kinds.
  bool SampledClient(int client) const;

  // --- semantic emitters (the only journal surface src/fl may call;
  // enforced by fedmigr_lint's journal-emit rule) ---
  void BeginRun(const JournalHeader& header);
  void RoundBegin(int epoch, int active, int available, int64_t lineage);
  void CohortSampled(int epoch, int cohort_size, int carryover);
  void ClientDeparted(int epoch, int client);
  void ClientCarriedOver(int epoch, int client);
  void ChurnAbsence(int epoch, int client);
  void ModelDistributed(int epoch, int client, int64_t lineage);
  void ClientParticipated(int epoch, int client, int lan, int64_t lineage,
                          double loss);
  void ClientUploaded(int epoch, int client, UploadStatus status,
                      int64_t lineage);
  void ScreenVerdict(int epoch, int client, bool flagged);
  void QuarantineTransition(int epoch, int client, int from_state,
                            int to_state);
  void QuorumCommit(int epoch, int arrivals, int required);
  void QuorumMiss(int epoch, int arrivals, int required);
  void ModelPublished(int epoch, int64_t lineage, int64_t parent);
  void MigrationHop(int epoch, int src, int dst, MigrationRoute route,
                    int64_t lineage);
  void ChaosLanSealed(int epoch, int lan);
  void ChaosLanOpened(int epoch, int lan);
  void ChaosServerDown(int epoch);
  void ChaosServerUp(int epoch);
  void RoundCommitted(int epoch, int participating, bool published,
                      int64_t lineage, double train_loss);

  // Frames the events buffered for `epoch` and appends the chunk. Called
  // once per epoch at the trainer's round commit; the buffer must hold
  // only events stamped with this epoch.
  util::Status CommitEpoch(int epoch);
  // Appends the running-summary chunk and makes the whole journal durable.
  util::Status EndRun();
  // Fsync without a summary (interrupt path).
  util::Status Finish();

  // Totals accumulated from every event emitted so far (including events
  // replayed from the kept chunks at Attach time).
  const JournalSummary& running_summary() const { return summary_; }

  // Events buffered for the current (uncommitted) epoch.
  size_t events_buffered() const { return buffer_.size(); }
  // Events committed to chunks so far (excludes header/summary).
  int64_t events_committed() const { return events_committed_; }

  // In-memory journal image; meaningful only when Options::path is empty.
  const std::vector<uint8_t>& memory_image() const { return memory_; }

 private:
  void Emit(const JournalEvent& event);
  util::Status AppendChunk(const std::vector<uint8_t>& payload);

  Options options_;
  bool attached_ = false;
  bool header_written_ = false;
  std::vector<JournalEvent> buffer_;
  JournalSummary summary_;
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

// Re-derives a JournalSummary from the event stream (the reconciliation
// half used by bench_chaos and the tests).
JournalSummary SummarizeJournalEvents(const std::vector<JournalEvent>& events);

}  // namespace fedmigr::obs

#endif  // FEDMIGR_OBS_JOURNAL_H_
