// Layer::ReleaseBuffers frees the forward caches and the gradient buffers
// and keeps the parameters. A model released between two train steps must
// give the second step the bytes it gives without the release: the same
// outputs, input gradient, parameter gradients and updated parameters. The
// trainer releases every client that leaves its cohort, and the DDPG agent
// its target networks after each train step, on this contract.

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/zoo.h"
#include "rl/state.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

struct Net {
  std::string name;
  std::function<Sequential(util::Rng*)> make;
  Shape input_shape;
};

// Every layer with caches or gradients: Conv2D, ReLU and MaxPool2x2 (the
// CNNs), Dense (all) and ResidualDense (ResMini).
std::vector<Net> Nets() {
  constexpr int kBatch = 5;
  const Shape image = {kBatch, kImageChannels, kImageSize, kImageSize};
  return {
      {"c10", MakeC10Net, image},
      {"c100", MakeC100Net, image},
      {"ddpg_mlp",
       [](util::Rng* rng) {
         return MakeMlp({rl::kActionFeatureDim, 32, 32, 1}, rng);
       },
       {kBatch, rl::kActionFeatureDim}},
      {"resmini", [](util::Rng* rng) { return MakeResMini(rng); },
       {kBatch, kResFeatureDim}},
  };
}

Tensor RandomTensor(const Shape& shape, util::Rng* rng) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return t;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape() || a.size() != b.size()) return false;
  return a.empty() ||  // an empty tensor's data() may be null
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

template <class T>
bool SameBytes(const std::vector<T*>& a, const std::vector<T*>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBytes(*a[i], *b[i])) return false;
  }
  return true;
}

// What one train step produced.
struct StepBytes {
  Tensor output;
  Tensor grad_input;  // empty for a params-only step
};

// ZeroGrads -> training Forward -> Backward (or BackwardParams) -> SGD step
// with momentum, on the loss 0.5·|y|², whose output gradient is y.
StepBytes TrainStep(Sequential* model, Sgd* sgd, const Tensor& input,
                    bool params_only) {
  StepBytes step;
  model->ZeroGrads();
  step.output = model->Forward(input, /*training=*/true);
  if (params_only) {
    model->BackwardParams(step.output);
  } else {
    step.grad_input = model->Backward(step.output);
  }
  sgd->Step(model);
  return step;
}

class ReleaseBuffersTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ReleaseBuffersTest, StepAfterAReleaseMatchesAStepWithout) {
  const auto [net_index, params_only] = GetParam();
  const Net net = Nets()[static_cast<size_t>(net_index)];
  util::Rng rng(17 + static_cast<uint64_t>(net_index));
  const Sequential initial = net.make(&rng);
  const Tensor first = RandomTensor(net.input_shape, &rng);
  const Tensor second = RandomTensor(net.input_shape, &rng);

  Sequential kept = initial;
  Sequential released = initial;
  Sgd kept_sgd(0.05, 0.9), released_sgd(0.05, 0.9);
  TrainStep(&kept, &kept_sgd, first, params_only);
  TrainStep(&released, &released_sgd, first, params_only);

  std::vector<Tensor> params_before;
  for (const Tensor* p : released.Params()) params_before.push_back(*p);
  released.ReleaseBuffers();
  for (const Tensor* g : released.Grads()) EXPECT_TRUE(g->empty());
  std::vector<const Tensor*> params_after;
  for (const Tensor* p : std::as_const(released).Params()) {
    params_after.push_back(p);
  }
  ASSERT_EQ(params_after.size(), params_before.size());
  for (size_t i = 0; i < params_before.size(); ++i) {
    EXPECT_TRUE(SameBytes(*params_after[i], params_before[i])) << i;
  }
  // A second release is a no-op.
  released.ReleaseBuffers();
  for (const Tensor* g : released.Grads()) EXPECT_TRUE(g->empty());

  const StepBytes a = TrainStep(&kept, &kept_sgd, second, params_only);
  const StepBytes b = TrainStep(&released, &released_sgd, second, params_only);
  EXPECT_TRUE(SameBytes(a.output, b.output));
  EXPECT_TRUE(SameBytes(a.grad_input, b.grad_input));
  EXPECT_TRUE(SameBytes(kept.Grads(), released.Grads()));
  EXPECT_TRUE(SameBytes(kept.Params(), released.Params()));
}

TEST_P(ReleaseBuffersTest, CloneOfAReleasedModelTrainsLikeTheOriginal) {
  const auto [net_index, params_only] = GetParam();
  const Net net = Nets()[static_cast<size_t>(net_index)];
  util::Rng rng(29 + static_cast<uint64_t>(net_index));
  Sequential model = net.make(&rng);
  const Tensor input = RandomTensor(net.input_shape, &rng);
  Sgd warmup(0.05, 0.9);
  TrainStep(&model, &warmup, input, params_only);
  model.ReleaseBuffers();

  // A clone allocates its gradients from the parameter shapes, whatever
  // state the original's buffers are in.
  Sequential clone = model;
  for (const Tensor* g : clone.Grads()) EXPECT_FALSE(g->empty());
  Sgd model_sgd(0.05), clone_sgd(0.05);
  const StepBytes a = TrainStep(&model, &model_sgd, input, params_only);
  const StepBytes b = TrainStep(&clone, &clone_sgd, input, params_only);
  EXPECT_TRUE(SameBytes(a.output, b.output));
  EXPECT_TRUE(SameBytes(model.Grads(), clone.Grads()));
  EXPECT_TRUE(SameBytes(model.Params(), clone.Params()));
}

INSTANTIATE_TEST_SUITE_P(
    Nets, ReleaseBuffersTest,
    ::testing::Combine(::testing::Range(0, static_cast<int>(Nets().size())),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return Nets()[static_cast<size_t>(std::get<0>(info.param))].name +
             (std::get<1>(info.param) ? "_params_only" : "_backward");
    });

TEST(ReleaseBuffersStepTest, StepWithoutABackwardAfterAReleaseDies) {
  util::Rng rng(5);
  Sequential model = MakeMlp({3, 4, 2}, &rng);
  model.ReleaseBuffers();
  Sgd sgd(0.1);
  EXPECT_DEATH(sgd.Step(&model), "ReleaseBuffers");
}

}  // namespace
}  // namespace fedmigr::nn
