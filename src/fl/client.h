// Simulated FL client: owns a slice of the training data, a local model
// replica and an SGD optimizer, and performs the Local Updating step
// (optionally with FedProx's proximal term).
//
// The model replica is copy-on-write: after Model Distribution the client
// merely aliases the aggregate block published by the trainer's ModelStore,
// and the first mutable access (LocalUpdate, DP noising, an in-place attack)
// clones a private block. Idle clients therefore cost O(1) model bytes,
// which is what lets the sharded simulator scale to 10^6 clients.

#ifndef FEDMIGR_FL_CLIENT_H_
#define FEDMIGR_FL_CLIENT_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "fl/model_store.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::fl {

struct LocalUpdateOptions {
  int epochs = 1;        // τ in the paper
  int batch_size = 32;
  // FedProx proximal weight μ; 0 disables the term. When enabled, the
  // gradient gains μ (w - w_ref) with w_ref the last distributed global
  // model.
  double fedprox_mu = 0.0;
};

struct LocalUpdateResult {
  double mean_loss = 0.0;
  int64_t samples_processed = 0;
};

class Client {
 public:
  // `dataset` must outlive the client. `indices` selects this client's local
  // samples.
  Client(int id, const data::Dataset* dataset, std::vector<int> indices,
         double learning_rate, double momentum, uint64_t seed);

  int id() const { return id_; }
  int num_samples() const { return static_cast<int>(indices_.size()); }
  const std::vector<int>& indices() const { return indices_; }

  // Local label distribution (cached at construction).
  const std::vector<double>& label_distribution() const {
    return label_distribution_;
  }

  bool has_model() const { return model_ != nullptr; }

  // Read-only view of the replica. Valid until the next SetModel.
  const nn::Sequential& model() const { return *model_; }

  // Mutable view. If the replica is currently shared (aliased from the
  // store or from a migration source) this clones a private block first, so
  // writes never leak into other holders.
  nn::Sequential& mutable_model();

  // Aliases a shared block (Model Distribution or an incoming migration).
  // O(1); no parameters are copied until the client writes.
  void SetModel(ModelRef model);

  // Shares the current replica and marks it immutable-in-place: the next
  // mutable_model() clones. Migration uses this to snapshot sources without
  // deep copies. Null if no model was ever installed.
  ModelRef share_model();

  // Non-demoting view of the current block (snapshot alias detection).
  ModelRef model_ref() const { return model_; }
  bool owns_model() const { return owns_model_; }

  // Rollback of a share_model() capture whose transfer never delivered: if
  // this client is again the sole holder of its block, it re-promotes to
  // exclusive ownership. A no-op while the block is still shared — the
  // ownership state is then exactly what it was before the capture.
  void ReclaimModel();

  // Frees the replica's gradient buffers and forward caches
  // (nn::Layer::ReleaseBuffers) if this client is the sole holder of its
  // block; a shared block (the published aggregate, a migration capture) is
  // left as it is. What a snapshot records stays: parameters, momentum, RNG.
  void ReleaseBuffers();

  // Records the reference point for FedProx's proximal term. Call at every
  // Model Distribution. It aliases the store's flattened aggregate.
  void SetProximalReference(FlatRef reference);
  const FlatRef& proximal_reference() const { return proximal_reference_; }

  // Runs `options.epochs` passes of mini-batch SGD over the local data.
  LocalUpdateResult LocalUpdate(const LocalUpdateOptions& options);

  // Snapshot layout: model replica, SGD momentum, shuffling RNG, FedProx
  // reference. The dataset slice is rebuilt from the workload seed, so only
  // a fingerprint (id, sample count) is stored for validation.
  //
  // A flag byte elides the parameter payload when the replica (resp. the
  // proximal reference) aliases `aggregate` (resp. `aggregate_flat`), and
  // loading re-aliases against the same refs. Null refs always inline the
  // payload. Loading rejects momentum buffers shaped unlike the replica.
  template <class Ar>
  util::Status Visit(Ar& ar, const ModelRef& aggregate = nullptr,
                     const FlatRef& aggregate_flat = nullptr);

 private:
  // Flag byte bits (trainer state v3).
  static constexpr uint8_t kModelAliased = 1u << 0;
  static constexpr uint8_t kProximalAliased = 1u << 1;
  static constexpr uint8_t kNoModel = 1u << 2;

  int id_;
  // SNAPSHOT-SKIP(construction-time view of the shared dataset)
  const data::Dataset* dataset_;
  std::vector<int> indices_;
  // SNAPSHOT-SKIP(recomputed from the partition at construction)
  std::vector<double> label_distribution_;
  // Invariant: mutable access requires owns_model_; aliased blocks are
  // cloned first (see mutable_model).
  std::shared_ptr<nn::Sequential> model_;
  bool owns_model_ = false;
  nn::Sgd optimizer_;
  util::Rng rng_;
  FlatRef proximal_reference_;  // flattened global params (possibly shared)
};

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_CLIENT_H_
