#include "fl/chaos.h"

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace fedmigr::fl {

namespace {

// Live registry mirrors of ChaosCounters, one counter per field — same
// contract as FaultMetrics/RobustMetrics: the struct is the serialized
// per-run source of truth, the registry accumulates process-wide, and every
// mutation goes through BumpChaos to keep the two views in lockstep.
struct ChaosMetrics {
  obs::Counter* migrations_planned;
  obs::Counter* migrations_completed;
  obs::Counter* migration_fallbacks;
  obs::Counter* migrations_rolled_back;
  obs::Counter* quorum_commits;
  obs::Counter* quorum_misses;
  obs::Counter* carryover_clients;
  obs::Counter* churn_absences;
  obs::Counter* churn_departures;

  static const ChaosMetrics& Get() {
    static const ChaosMetrics* metrics = [] {
      obs::Registry& registry = obs::Registry::Default();
      return new ChaosMetrics{
          registry.GetCounter("fl/chaos_migrations_planned"),
          registry.GetCounter("fl/chaos_migrations_completed"),
          registry.GetCounter("fl/chaos_migration_fallbacks"),
          registry.GetCounter("fl/chaos_migrations_rolled_back"),
          registry.GetCounter("fl/chaos_quorum_commits"),
          registry.GetCounter("fl/chaos_quorum_misses"),
          registry.GetCounter("fl/chaos_carryover_clients"),
          registry.GetCounter("fl/chaos_churn_absences"),
          registry.GetCounter("fl/chaos_churn_departures"),
      };
    }();
    return *metrics;
  }
};

void BumpChaos(int64_t* slot, obs::Counter* ChaosMetrics::*member) {
  ++*slot;
  if (obs::Telemetry::enabled()) (ChaosMetrics::Get().*member)->Increment();
}

}  // namespace

void CountMigrationPlanned(ChaosCounters* counters) {
  BumpChaos(&counters->migrations_planned, &ChaosMetrics::migrations_planned);
}
void CountMigrationCompleted(ChaosCounters* counters) {
  BumpChaos(&counters->migrations_completed,
            &ChaosMetrics::migrations_completed);
}
void CountMigrationFallback(ChaosCounters* counters) {
  BumpChaos(&counters->migration_fallbacks, &ChaosMetrics::migration_fallbacks);
}
void CountMigrationRolledBack(ChaosCounters* counters) {
  BumpChaos(&counters->migrations_rolled_back,
            &ChaosMetrics::migrations_rolled_back);
}
void CountQuorumCommit(ChaosCounters* counters) {
  BumpChaos(&counters->quorum_commits, &ChaosMetrics::quorum_commits);
}
void CountQuorumMiss(ChaosCounters* counters) {
  BumpChaos(&counters->quorum_misses, &ChaosMetrics::quorum_misses);
}
void CountCarryoverClient(ChaosCounters* counters) {
  BumpChaos(&counters->carryover_clients, &ChaosMetrics::carryover_clients);
}
void CountChurnAbsence(ChaosCounters* counters) {
  BumpChaos(&counters->churn_absences, &ChaosMetrics::churn_absences);
}
void CountChurnDeparture(ChaosCounters* counters) {
  BumpChaos(&counters->churn_departures, &ChaosMetrics::churn_departures);
}

}  // namespace fedmigr::fl
