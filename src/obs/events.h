// The run's event stream: what a run decided — round lifecycle, cohort
// sampling, per-client participation/upload/screen verdicts, quarantine
// transitions, chaos window edges, quorum commits/misses and every
// migration hop as a lineage edge. The trainer always records it, one
// EventBuffer per epoch, and FoldEvent is the one map from an event to the
// counters: the chaos ledger, the reputation counters and the journal
// summary come out of the same fold, so they cannot disagree. obs::Journal
// only persists the stream.
//
// Events are emitted only from the serial sections of the trainer loop, in
// program order, so the stream is identical across thread settings and
// feeds nothing back into simulation state.

#ifndef FEDMIGR_OBS_EVENTS_H_
#define FEDMIGR_OBS_EVENTS_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace fedmigr::obs {

// Semantic event kinds. Values are part of the journal's on-disk format —
// append only, never renumber.
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
// field. Mirrors fl::ReputationState (fl/robust.h).
inline constexpr int32_t kJournalStateHealthy = 0;
inline constexpr int32_t kJournalStateQuarantined = 2;
inline constexpr int32_t kJournalStateRehabilitating = 3;

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

// --- Run counters ----------------------------------------------------------
// Plain data in RunResult and the trainer snapshot.

// Robustness counters (fl/robust.h). FoldEvent writes the last three; the
// screen and the attack injector bump the others in place, having no event
// kinds yet. On an inert config everything except `screened_updates` stays
// zero (the non-finite gate is always on, so every upload is screened).
struct RobustCounters {
  int64_t screened_updates = 0;     // uploads that entered the screen
  int64_t nonfinite_rejected = 0;   // dropped: NaN/Inf coordinates
  int64_t norm_clipped = 0;         // kept, update delta L2-clipped
  int64_t norm_rejected = 0;        // dropped: delta-norm outlier
  int64_t cosine_rejected = 0;      // dropped: cosine anomaly vs aggregate
  int64_t attacked_updates = 0;     // models tampered by the injector
  int64_t quarantine_excluded = 0;  // uploads skipped while quarantined
  int64_t quarantines = 0;          // transitions into quarantine
  int64_t rehabilitations = 0;      // rehabilitating -> healthy transitions

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(screened_updates);
    ar.Io(nonfinite_rejected);
    ar.Io(norm_clipped);
    ar.Io(norm_rejected);
    ar.Io(cosine_rejected);
    ar.Io(attacked_updates);
    ar.Io(quarantine_excluded);
    ar.Io(quarantines);
    ar.Io(rehabilitations);
    return ar.status();
  }
};

// The chaos ledger (fl::ChaosCounters), all of it folded from events. Every
// planned move ends in exactly one route bucket; a fault-free run has
// planned == completed. The watchdog fields stay zero while the watchdog is
// off, the churn fields without churn, and fallbacks and rollbacks while
// the fault model is off.
struct ChaosCounters {
  int64_t migrations_planned = 0;      // every migration hop
  int64_t migrations_completed = 0;    // #kMigrationC2C
  int64_t migration_fallbacks = 0;     // #kMigrationFallback
  int64_t migrations_rolled_back = 0;  // #kMigrationRolledBack
  int64_t quorum_commits = 0;          // #kQuorumCommit
  int64_t quorum_misses = 0;           // #kQuorumMiss
  int64_t carryover_clients = 0;       // #kClientCarriedOver
  int64_t churn_absences = 0;          // #kChurnAbsence
  int64_t churn_departures = 0;        // #kClientDeparted

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(migrations_planned);
    ar.Io(migrations_completed);
    ar.Io(migration_fallbacks);
    ar.Io(migrations_rolled_back);
    ar.Io(quorum_commits);
    ar.Io(quorum_misses);
    ar.Io(carryover_clients);
    ar.Io(churn_absences);
    ar.Io(churn_departures);
    return ar.status();
  }
};

// Everything the event stream counts. The trainer folds every event it
// records into one; a journal folds the events it persists into another.
struct EventCounts {
  RobustCounters robust;
  ChaosCounters chaos;
  int64_t epochs_run = 0;       // #kRoundCommit
  int64_t model_publishes = 0;  // #kModelPublished
};

// Adds one event to the counts: the only writer of `chaos`, of robust's
// quarantine fields and of the two journal totals.
void FoldEvent(const JournalEvent& event, EventCounts* counts);

// --- Recording -------------------------------------------------------------

// One epoch's events in program order. The semantic emitters below are the
// only surface src/fl records through (fedmigr_lint's journal-emit rule);
// field meanings are documented on JournalEventKind.
class EventBuffer {
 public:
  using Kind = JournalEventKind;

  void RoundBegin(int epoch, int active, int available, int64_t lineage) {
    Emit(Kind::kRoundBegin, epoch, active, available, lineage);
  }
  void CohortSampled(int epoch, int cohort_size, int carryover) {
    Emit(Kind::kCohortSampled, epoch, cohort_size, carryover);
  }
  void ClientDeparted(int epoch, int client) {
    Emit(Kind::kClientDeparted, epoch, client);
  }
  void ClientCarriedOver(int epoch, int client) {
    Emit(Kind::kClientCarriedOver, epoch, client);
  }
  void ChurnAbsence(int epoch, int client) {
    Emit(Kind::kChurnAbsence, epoch, client);
  }
  void ModelDistributed(int epoch, int client, int64_t lineage) {
    Emit(Kind::kModelDistributed, epoch, client, 0, lineage);
  }
  void ClientParticipated(int epoch, int client, int lan, int64_t lineage,
                          double loss) {
    Emit(Kind::kClientParticipated, epoch, client, lan, lineage, 0, loss);
  }
  void ClientUploaded(int epoch, int client, UploadStatus status,
                      int64_t lineage) {
    Emit(Kind::kClientUploaded, epoch, client, static_cast<int32_t>(status),
         lineage);
  }
  void ScreenVerdict(int epoch, int client, bool flagged) {
    Emit(Kind::kScreenVerdict, epoch, client, flagged ? 1 : 0);
  }
  void QuarantineTransition(int epoch, int client, int from_state,
                            int to_state) {
    Emit(Kind::kQuarantineTransition, epoch, client,
         (from_state << 8) | to_state);
  }
  void QuorumCommit(int epoch, int arrivals, int required) {
    Emit(Kind::kQuorumCommit, epoch, arrivals, required);
  }
  void QuorumMiss(int epoch, int arrivals, int required) {
    Emit(Kind::kQuorumMiss, epoch, arrivals, required);
  }
  void ModelPublished(int epoch, int64_t lineage, int64_t parent) {
    Emit(Kind::kModelPublished, epoch, 0, 0, lineage, parent);
  }
  void MigrationHop(int epoch, int src, int dst, MigrationRoute route,
                    int64_t lineage) {
    Emit(route == MigrationRoute::kC2C              ? Kind::kMigrationC2C
         : route == MigrationRoute::kServerFallback ? Kind::kMigrationFallback
                                                    : Kind::kMigrationRolledBack,
         epoch, src, dst, lineage);
  }
  void ChaosLanSealed(int epoch, int lan) {
    Emit(Kind::kChaosLanSealed, epoch, lan);
  }
  void ChaosLanOpened(int epoch, int lan) {
    Emit(Kind::kChaosLanOpened, epoch, lan);
  }
  void ChaosServerDown(int epoch) { Emit(Kind::kChaosServerDown, epoch); }
  void ChaosServerUp(int epoch) { Emit(Kind::kChaosServerUp, epoch); }
  void RoundCommitted(int epoch, int participating, bool published,
                      int64_t lineage, double train_loss) {
    Emit(Kind::kRoundCommit, epoch, participating, published ? 1 : 0, lineage,
         0, train_loss);
  }

  const std::vector<JournalEvent>& events() const { return events_; }
  // Starts the next epoch (keeps the capacity).
  void Clear() { events_.clear(); }

 private:
  void Emit(Kind kind, int epoch, int32_t a = 0, int32_t b = 0, int64_t u = 0,
            int64_t v = 0, double x = 0.0) {
    events_.push_back({static_cast<uint8_t>(kind), epoch, a, b,
                       static_cast<uint64_t>(u), static_cast<uint64_t>(v), x});
  }

  std::vector<JournalEvent> events_;
};

}  // namespace fedmigr::obs

#endif  // FEDMIGR_OBS_EVENTS_H_
