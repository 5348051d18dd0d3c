#include "fl/server.h"

#include "nn/loss.h"
#include "util/logging.h"

namespace fedmigr::fl {

Server::Server(nn::Sequential global_model, const data::Dataset* test)
    : global_model_(std::move(global_model)), test_(test) {
  FEDMIGR_CHECK(test_ != nullptr);
}

void Server::SetAggregator(const Aggregator* aggregator) {
  aggregator_ = aggregator;
}

void Server::Aggregate(const std::vector<const nn::Sequential*>& models,
                       const std::vector<double>& weights) {
  FEDMIGR_CHECK(aggregator_ != nullptr) << "no aggregation rule installed";
  aggregator_->Aggregate(models, weights, &global_model_);
}

Evaluation Server::EvaluateGlobal(int batch_size) const {
  return Evaluate(global_model_, batch_size);
}

Evaluation Server::Evaluate(const nn::Sequential& model,
                            int batch_size) const {
  Evaluation eval;
  if (test_->size() == 0) return eval;
  // Const-cast: Forward caches activations but inference leaves parameters
  // untouched; we evaluate on a scratch copy to keep the API honest.
  nn::Sequential scratch = model;
  data::BatchIterator batches(test_, {}, batch_size, /*rng=*/nullptr);
  nn::Tensor batch;
  std::vector<int> labels;
  double loss_sum = 0.0;
  double correct = 0.0;
  int total = 0;
  while (batches.Next(&batch, &labels)) {
    const nn::Tensor logits = scratch.Forward(batch, /*training=*/false);
    const nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
    const int n = static_cast<int>(labels.size());
    loss_sum += loss.loss * n;
    correct += nn::Accuracy(logits, labels) * n;
    total += n;
  }
  eval.loss = loss_sum / total;
  eval.accuracy = correct / total;
  return eval;
}

}  // namespace fedmigr::fl
