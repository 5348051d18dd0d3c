// Classification loss and accuracy. SoftmaxCrossEntropy folds softmax into
// the loss for numerical stability.

#ifndef FEDMIGR_NN_LOSS_H_
#define FEDMIGR_NN_LOSS_H_

#include <vector>

#include "nn/tensor.h"

namespace fedmigr::nn {

struct LossResult {
  double loss = 0.0;     // mean over the batch
  Tensor grad_logits;    // dL/dlogits, already divided by batch size
};

// Mean softmax cross-entropy of `logits` [N, C] against integer `labels`.
LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int>& labels);

// Fraction of rows whose argmax matches the label.
double Accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_LOSS_H_
