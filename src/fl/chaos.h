// Trainer-level chaos accounting: the fl-side counterpart of the
// infrastructure schedule in net/fault.h (ChaosConfig).
//
// The net layer decides *when* a LAN is sealed, the server is down or a
// client has churned out; the fl layer owns the recovery semantics — the
// round-progress watchdog (quorum commit, carryover of survivor uploads),
// atomic two-phase migration capture/install with rollback, and fleet-churn
// membership (absences, departures, re-joins minting from the aggregate).
// ChaosCounters records every one of those decisions so benches and tests
// can reconcile them: migrations_planned must always equal
// migrations_completed + migration_fallbacks + migrations_rolled_back, and
// each ledger total equals the one the flight recorder derives from its
// events (obs/journal.h).
//
// Counters follow the FaultCounters/RobustCounters contract: plain data,
// incremented in place by the trainer, which publishes each field's
// per-epoch growth to the obs registry as an `fl/chaos_*` counter.

#ifndef FEDMIGR_FL_CHAOS_H_
#define FEDMIGR_FL_CHAOS_H_

#include <cstdint>

#include "util/status.h"

namespace fedmigr::fl {

// Per-run chaos counters surfaced in RunResult / bench tables. The
// migration ledger counts every move, chaos or not: a fault-free run has
// planned == completed. The watchdog fields stay zero while the watchdog is
// off (quorum_fraction 0), the churn fields without churn, and fallbacks and
// rollbacks while the fault model is off (FaultConfig::enabled() false).
struct ChaosCounters {
  // Two-phase migration ledger. Every planned move is captured at its
  // source and ends in exactly one of the three buckets below.
  int64_t migrations_planned = 0;      // moves captured at the source
  int64_t migrations_completed = 0;    // installed via the direct C2C route
  int64_t migration_fallbacks = 0;     // installed via the server re-route
  int64_t migrations_rolled_back = 0;  // undelivered; source kept ownership
  // Round-progress watchdog.
  int64_t quorum_commits = 0;     // aggregation rounds that met quorum
  int64_t quorum_misses = 0;      // rounds skipped (aggregate not published)
  int64_t carryover_clients = 0;  // survivor uploads carried to a later round
  // Fleet churn.
  int64_t churn_absences = 0;    // sampled members skipped for one round
  int64_t churn_departures = 0;  // members whose private state was discarded

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

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_CHAOS_H_
