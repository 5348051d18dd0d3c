#include "obs/events.h"

namespace fedmigr::obs {

void FoldEvent(const JournalEvent& event, EventCounts* counts) {
  ChaosCounters& chaos = counts->chaos;
  switch (static_cast<JournalEventKind>(event.kind)) {
    case JournalEventKind::kRoundCommit:
      ++counts->epochs_run;
      break;
    case JournalEventKind::kModelPublished:
      ++counts->model_publishes;
      break;
    case JournalEventKind::kMigrationC2C:
      ++chaos.migrations_planned;
      ++chaos.migrations_completed;
      break;
    case JournalEventKind::kMigrationFallback:
      ++chaos.migrations_planned;
      ++chaos.migration_fallbacks;
      break;
    case JournalEventKind::kMigrationRolledBack:
      ++chaos.migrations_planned;
      ++chaos.migrations_rolled_back;
      break;
    case JournalEventKind::kQuorumCommit:
      ++chaos.quorum_commits;
      break;
    case JournalEventKind::kQuorumMiss:
      ++chaos.quorum_misses;
      break;
    case JournalEventKind::kClientCarriedOver:
      ++chaos.carryover_clients;
      break;
    case JournalEventKind::kChurnAbsence:
      ++chaos.churn_absences;
      break;
    case JournalEventKind::kClientDeparted:
      ++chaos.churn_departures;
      break;
    case JournalEventKind::kQuarantineTransition: {
      const int32_t from = event.b >> 8;
      const int32_t to = event.b & 0xFF;
      if (to == kJournalStateQuarantined) ++counts->robust.quarantines;
      if (from == kJournalStateRehabilitating && to == kJournalStateHealthy) {
        ++counts->robust.rehabilitations;
      }
      break;
    }
    case JournalEventKind::kClientUploaded:
      if (event.b == static_cast<int32_t>(UploadStatus::kExcludedQuarantined)) {
        ++counts->robust.quarantine_excluded;
      }
      break;
    default:
      break;
  }
}

}  // namespace fedmigr::obs
