// Parameter server: weighted FedAvg aggregation (Eq. 7) and global-model
// evaluation on the held-out test set.

#ifndef FEDMIGR_FL_SERVER_H_
#define FEDMIGR_FL_SERVER_H_

#include <vector>

#include "data/dataset.h"
#include "fl/robust.h"
#include "nn/sequential.h"

namespace fedmigr::fl {

struct Evaluation {
  double loss = 0.0;
  double accuracy = 0.0;
};

class Server {
 public:
  // `test` must outlive the server.
  Server(nn::Sequential global_model, const data::Dataset* test);

  nn::Sequential& global_model() { return global_model_; }
  const nn::Sequential& global_model() const { return global_model_; }

  // Installs the non-owning aggregation rule Aggregate() uses. The rule
  // must outlive the server (the Trainer owns it alongside the server).
  void SetAggregator(const Aggregator* aggregator);

  // Replaces the global model with the installed rule's aggregate of
  // `models`. `weights` are the sample counts n_k; the Mean rule computes
  // w_g = sum_k (n_k / N) w_k (Eq. 7), the robust rules may ignore them
  // (see fl/robust.h). Requires an installed rule.
  void Aggregate(const std::vector<const nn::Sequential*>& models,
                 const std::vector<double>& weights);

  // The legacy weighted average into an arbitrary output model; used for the
  // per-epoch "virtual aggregate" metric without touching server state.
  // Delegates to the shared WeightedMean kernel in fl/robust.h.
  static void WeightedAverage(const std::vector<const nn::Sequential*>& models,
                              const std::vector<double>& weights,
                              nn::Sequential* out);

  // Evaluates the stored global model on the test set.
  Evaluation EvaluateGlobal(int batch_size = 64) const;
  // Evaluates an arbitrary model on the test set.
  Evaluation Evaluate(const nn::Sequential& model, int batch_size = 64) const;

 private:
  nn::Sequential global_model_;
  const data::Dataset* test_;
  const Aggregator* aggregator_ = nullptr;  // non-owning
};

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_SERVER_H_
