// Partial-participation cohort scheduling for the sharded simulator.
//
// `CohortSampler` draws the sampled cohort of each aggregation round. It is
// stateless: the round's sample is a pure function of (seed, round index,
// fleet size, cohort size), and the trainer's main RNG stream is never
// consumed — cohort scheduling cannot perturb the full-participation
// streams. (Churn and quorum carryover make the trainer's *effective*
// cohort history-dependent, so the trainer snapshots that list itself.)
// Sampling uses Floyd's algorithm, O(C log C) independent of the fleet
// size K, which matters at K = 10^6 with C = 10^2.
//
// `ShardedClients` is the lazy client-state container: a sharded pointer
// table whose shards are allocated only when a client in them first joins a
// cohort. Constructing a million-client trainer allocates the shard
// directory (K / 1024 pointers), not K `Client` objects.

#ifndef FEDMIGR_FL_COHORT_H_
#define FEDMIGR_FL_COHORT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "fl/client.h"

namespace fedmigr::fl {

class CohortSampler {
 public:
  // `cohort_size` must lie in [1, num_clients]; both this constructor and
  // the Trainer CHECK-fail otherwise. The Trainer treats 0 as full
  // participation and builds no sampler.
  CohortSampler(uint64_t seed, int num_clients, int cohort_size);

  // Distinct client ids of round `round`, sorted ascending. Deterministic in
  // (seed, round) only — repeated calls and calls from different threads
  // agree.
  std::vector<int> Sample(int64_t round) const;

  int cohort_size() const { return cohort_size_; }

 private:
  uint64_t seed_;
  int num_clients_;
  int cohort_size_;
};

class ShardedClients {
 public:
  explicit ShardedClients(int num_clients);

  int size() const { return num_clients_; }
  // Materialized clients currently held (drives the fl/materialized_models
  // gauge and the memory acceptance test).
  int num_materialized() const { return materialized_; }
  // Shards with at least one ever-materialized client (fl/resident_shards
  // gauge; shards are never returned to the lazy state).
  int num_resident_shards() const { return resident_shards_; }

  // The client at `i`, or nullptr while it is still lazy.
  Client* Get(int i) const;

  // Installs a freshly materialized client, allocating its shard on demand.
  Client* Put(int i, std::unique_ptr<Client> client);

  // Returns client `i` to the lazy state. The Trainer evicts only on a churn
  // departure and on a snapshot restore whose record for `i` is lazy;
  // rotating out of a cohort keeps the client materialized.
  void Evict(int i);

 private:
  static constexpr int kShardBits = 10;  // 1024 clients per shard

  struct Shard {
    std::unique_ptr<Client> slots[1 << kShardBits];
  };

  int num_clients_ = 0;
  int materialized_ = 0;
  int resident_shards_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_COHORT_H_
