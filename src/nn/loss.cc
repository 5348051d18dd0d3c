#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace fedmigr::nn {

LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int>& labels) {
  FEDMIGR_CHECK_EQ(logits.ndim(), 2);
  const int batch = logits.dim(0), classes = logits.dim(1);
  FEDMIGR_CHECK_EQ(static_cast<int>(labels.size()), batch);

  LossResult result;
  result.grad_logits = Tensor({batch, classes});
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (int n = 0; n < batch; ++n) {
    const int label = labels[static_cast<size_t>(n)];
    FEDMIGR_CHECK_GE(label, 0);
    FEDMIGR_CHECK_LT(label, classes);
    float row_max = logits.At(n, 0);
    for (int c = 1; c < classes; ++c) {
      row_max = std::max(row_max, logits.At(n, c));
    }
    double sum = 0.0;
    for (int c = 0; c < classes; ++c) {
      sum += std::exp(static_cast<double>(logits.At(n, c) - row_max));
    }
    const double log_sum = std::log(sum) + row_max;
    result.loss += log_sum - logits.At(n, label);
    for (int c = 0; c < classes; ++c) {
      const double p =
          std::exp(static_cast<double>(logits.At(n, c)) - log_sum);
      result.grad_logits.At(n, c) =
          (static_cast<float>(p) - (c == label ? 1.0f : 0.0f)) * inv_batch;
    }
  }
  result.loss /= batch;
  return result;
}

double Accuracy(const Tensor& logits, const std::vector<int>& labels) {
  FEDMIGR_CHECK_EQ(logits.ndim(), 2);
  const int batch = logits.dim(0), classes = logits.dim(1);
  FEDMIGR_CHECK_EQ(static_cast<int>(labels.size()), batch);
  if (batch == 0) return 0.0;
  int correct = 0;
  for (int n = 0; n < batch; ++n) {
    int argmax = 0;
    for (int c = 1; c < classes; ++c) {
      if (logits.At(n, c) > logits.At(n, argmax)) argmax = c;
    }
    if (argmax == labels[static_cast<size_t>(n)]) ++correct;
  }
  return static_cast<double>(correct) / batch;
}

}  // namespace fedmigr::nn
