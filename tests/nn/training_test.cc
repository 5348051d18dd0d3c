// End-to-end learning tests: the NN substrate must actually fit data, since
// every FL result in the benches rests on it.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

// XOR: not linearly separable, so the hidden layer must do real work.
TEST(TrainingTest, MlpLearnsXor) {
  util::Rng rng(42);
  Sequential model;
  model.Add(std::make_unique<Dense>(2, 8, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<Dense>(8, 2, &rng));

  Tensor inputs({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<int> labels = {0, 1, 1, 0};

  Sgd sgd(0.5, 0.9);
  double final_loss = 1e9;
  for (int step = 0; step < 500; ++step) {
    model.ZeroGrads();
    const Tensor logits = model.Forward(inputs);
    const LossResult loss = SoftmaxCrossEntropy(logits, labels);
    model.Backward(loss.grad_logits);
    sgd.Step(&model);
    final_loss = loss.loss;
  }
  EXPECT_LT(final_loss, 0.05);
  EXPECT_EQ(Accuracy(model.Forward(inputs, false), labels), 1.0);
}

// Small Gaussian-blob classification with the conv stack.
TEST(TrainingTest, ConvNetLearnsBlobClasses) {
  util::Rng rng(7);
  const int classes = 3, per_class = 20;
  const int n = classes * per_class;
  Tensor inputs({n, 1, 4, 4});
  std::vector<int> labels(static_cast<size_t>(n));
  std::vector<std::vector<float>> prototypes(classes,
                                             std::vector<float>(16));
  for (auto& proto : prototypes) {
    for (auto& x : proto) x = static_cast<float>(rng.Normal());
  }
  for (int i = 0; i < n; ++i) {
    const int c = i % classes;
    labels[static_cast<size_t>(i)] = c;
    for (int j = 0; j < 16; ++j) {
      inputs[i * 16 + j] =
          prototypes[static_cast<size_t>(c)][static_cast<size_t>(j)] +
          static_cast<float>(rng.Normal(0.0, 0.3));
    }
  }

  Sequential model;
  model.Add(std::make_unique<Conv2D>(1, 4, 3, 1, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<MaxPool2x2>());
  model.Add(std::make_unique<Flatten>());
  model.Add(std::make_unique<Dense>(16, classes, &rng));

  Sgd sgd(0.1);
  for (int step = 0; step < 150; ++step) {
    model.ZeroGrads();
    const Tensor logits = model.Forward(inputs);
    const LossResult loss = SoftmaxCrossEntropy(logits, labels);
    model.Backward(loss.grad_logits);
    sgd.Step(&model);
  }
  EXPECT_GT(Accuracy(model.Forward(inputs, false), labels), 0.95);
}

// The residual model must also train (checks skip-connection gradients in
// an end-to-end loop, not just gradcheck).
TEST(TrainingTest, ResidualModelLearns) {
  util::Rng rng(11);
  const int n = 40;
  Tensor inputs({n, 8});
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int c = i % 2;
    labels[static_cast<size_t>(i)] = c;
    for (int j = 0; j < 8; ++j) {
      inputs.At(i, j) = static_cast<float>(
          rng.Normal(c == 0 ? -1.0 : 1.0, 0.5));
    }
  }
  Sequential model;
  model.Add(std::make_unique<Dense>(8, 12, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<ResidualDense>(12, 12, &rng));
  model.Add(std::make_unique<Dense>(12, 2, &rng));

  Sgd sgd(0.05);
  for (int step = 0; step < 200; ++step) {
    model.ZeroGrads();
    const Tensor logits = model.Forward(inputs);
    const LossResult loss = SoftmaxCrossEntropy(logits, labels);
    model.Backward(loss.grad_logits);
    sgd.Step(&model);
  }
  EXPECT_GT(Accuracy(model.Forward(inputs, false), labels), 0.95);
}

}  // namespace
}  // namespace fedmigr::nn
