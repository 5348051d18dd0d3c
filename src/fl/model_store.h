// Copy-on-write model store for the sharded simulator.
//
// At production scale (ROADMAP: millions of simulated clients) the dominant
// memory cost is one `nn::Sequential` replica per client, even though at any
// moment almost every client holds an exact copy of the last published
// aggregate. The store keeps that aggregate in a single refcounted parameter
// block; idle clients alias it through a `ModelRef` and only materialize a
// private copy on first write (see Client::mutable_model). Aliased clients
// therefore cost O(1) bytes for their model and the per-round Model
// Distribution becomes one publish plus K pointer installs instead of K deep
// copies.
//
// The store also shares the flattened-parameter view used as FedProx's
// proximal reference: one flatten per aggregation instead of one per client.
//
// This is the only sanctioned construction site for `nn::Sequential` objects
// inside src/fl (enforced by the `eager-client-alloc` fedmigr_lint rule);
// everything else holds refs.

#ifndef FEDMIGR_FL_MODEL_STORE_H_
#define FEDMIGR_FL_MODEL_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/sequential.h"

namespace fedmigr::fl {

// Shared immutable handle to a model parameter block. Holders must not cast
// away constness; mutation goes through Client::mutable_model, which clones
// first unless the client already owns its block exclusively.
using ModelRef = std::shared_ptr<const nn::Sequential>;

// Shared immutable handle to a flattened parameter vector (FedProx w_ref).
using FlatRef = std::shared_ptr<const std::vector<float>>;

class ModelStore {
 public:
  // Installs `aggregate` as the current published block (one deep copy).
  // Existing refs to the previous block stay valid; the previous block is
  // freed when its last alias drops.
  const ModelRef& Publish(const nn::Sequential& aggregate);

  // The current published block; null until the first Publish.
  const ModelRef& aggregate() const { return aggregate_; }

  // Flattened view of the current block, refreshed once per Publish.
  const FlatRef& aggregate_flat() const { return flat_; }

  // Live handles to the current block, including the store's own (so a fully
  // aliased fleet of K clients reads K + 1). Diagnostic only.
  long aggregate_use_count() const {
    return aggregate_ ? aggregate_.use_count() : 0;
  }

  // Deep-copies `model` into a fresh exclusively owned block. The CoW clone
  // path for clients, kept here so src/fl has a single construction site.
  static std::shared_ptr<nn::Sequential> Clone(const nn::Sequential& model);

  // --- Lineage (flight recorder, DESIGN.md §16) ---------------------------
  // Publish is the only mint site for lineage ids: each published block gets
  // the next id from a serial monotonic counter, so ids are deterministic
  // regardless of thread counts. CoW clones made from a block inherit its
  // lineage (a clone continues the same causal line; the trainer threads the
  // per-client id through migrations). Id 0 is "no lineage" (pre-publish).
  int64_t aggregate_lineage() const { return aggregate_lineage_; }
  // Lineage of the block the current aggregate replaced (DAG parent edge).
  int64_t parent_lineage() const { return parent_lineage_; }
  // Snapshot plumbing: the trainer serializes the mint state so a resumed
  // run continues the same id sequence byte-for-byte.
  int64_t next_lineage_id() const { return next_lineage_id_; }
  void RestoreLineage(int64_t next_id, int64_t aggregate, int64_t parent) {
    next_lineage_id_ = next_id;
    aggregate_lineage_ = aggregate;
    parent_lineage_ = parent;
  }

 private:
  ModelRef aggregate_;
  FlatRef flat_;
  int64_t next_lineage_id_ = 1;
  int64_t aggregate_lineage_ = 0;
  int64_t parent_lineage_ = 0;
};

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_MODEL_STORE_H_
