// Migration plans and their execution.
//
// A plan says, for every client j, which client's model it runs next:
// incoming[j] = i installs client i's current model on client j (i == j
// keeps the local model). Plans from the Hungarian pipeline are
// permutations; the DRL single-pair plans and FedSwap pairings are handled
// by the same representation.
//
// `via_server` distinguishes FedSwap-style exchange (models travel through
// the PS, charged as C2S WAN traffic both ways) from true C2C migration.

#ifndef FEDMIGR_FL_MIGRATION_H_
#define FEDMIGR_FL_MIGRATION_H_

#include <cstdint>
#include <vector>

#include "net/fault.h"
#include "net/topology.h"
#include "net/traffic.h"

namespace fedmigr::fl {

struct MigrationPlan {
  std::vector<int> incoming;  // incoming[j] = source client for j's model
  bool via_server = false;

  // A plan that keeps every model where it is.
  static MigrationPlan Identity(int num_clients);

  // Number of models that actually move.
  int NumMoves() const;
  bool IsIdentity() const { return NumMoves() == 0; }
  // True when `incoming` is a permutation of [0, K).
  bool IsPermutation() const;
};

// From a destination map (destination[i] = j means i's model goes to j,
// i = stay) to the incoming representation. Destinations must be distinct
// for moved models.
MigrationPlan PlanFromDestinations(const std::vector<int>& destination,
                                   bool via_server = false);

struct MigrationCost {
  double seconds = 0.0;   // wall-clock (moves happen in parallel: max)
  int64_t bytes = 0;      // total traffic charged
  int num_moves = 0;
};

// Outcome of executing a plan over a faulty network. `delivered[j]` is true
// when destination j actually received its planned model; a move that is
// not delivered degrades gracefully — j simply keeps the model it had.
// `corrupted[j]` marks deliveries whose payload arrived bit-flipped (the
// receiver's checksum rejects those; callers treat them as undelivered and
// count a corrupt_reject).
struct MigrationExecution {
  MigrationCost cost;
  std::vector<bool> delivered;
  std::vector<bool> corrupted;
  // Delivered, but via the server re-route rather than the planned direct
  // C2C link (false wherever delivered[j] is false). The trainer's chaos
  // ledger splits completed moves on this.
  std::vector<bool> via_fallback;
  int failed_moves = 0;    // moves that never reached their destination
  int fallback_moves = 0;  // C2C moves re-routed through the server (C2S)
};

// Executes `plan` through the fault-aware transfer path and records every
// transfer in `traffic` (if non-null). Does not touch any models — callers
// move the actual replicas. Failed attempts, retries and fallback hops are
// all charged to `traffic` and to the returned cost; a disabled injector
// charges each move its direct transfer and delivers everything. A C2C move
// whose direct link gives up is re-routed via the server (two C2S hops)
// when the injector's `server_fallback` is set; via-server plans have no
// further fallback.
//
// `node_ids` maps the plan's index space to global client ids: a
// cohort-local plan over C active clients executes against the full
// topology, and traffic/fault accounting is attributed to the real clients.
MigrationExecution ExecuteWithFaults(const MigrationPlan& plan,
                                     const net::Topology& topology,
                                     int64_t model_bytes,
                                     net::TrafficAccountant* traffic,
                                     net::FaultInjector* faults,
                                     const std::vector<int>& node_ids);

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_MIGRATION_H_
