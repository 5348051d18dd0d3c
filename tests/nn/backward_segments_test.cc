// Segmented backward: Sequential::Backward / BackwardParams over a batch cut
// into row segments must give every parameter gradient the bytes of one
// backward per segment, run in segment order, and the input gradient the
// whole batch's bytes. The DDPG train step runs its critic and actor
// backwards this way, one segment per sample. A layer with parameters that
// does not keep segments apart must fail loudly, never merge them.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

const std::vector<int> kAgentDims = {8, 32, 32, 1};

Tensor RandomTensor(Shape shape, util::Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return t;
}

// Rows [begin, end) of a 2-D tensor.
Tensor Rows(const Tensor& t, int begin, int end) {
  const int cols = t.dim(1);
  Tensor out({end - begin, cols});
  std::memcpy(out.data(), t.data() + static_cast<int64_t>(begin) * cols,
              static_cast<size_t>(out.size()) * sizeof(float));
  return out;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

Sequential RandomMlp(util::Rng* rng) {
  Sequential model = MakeMlp(kAgentDims, rng);
  for (Tensor* param : model.Params()) {
    for (int64_t i = 0; i < param->size(); ++i) {
      (*param)[i] = static_cast<float>(rng->Normal(0.0, 0.5));
    }
  }
  return model;
}

class SegmentedBackwardTest
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(SegmentedBackwardTest, MatchesOneBackwardPerSegment) {
  const std::vector<int>& lengths = GetParam();
  std::vector<int> ends;
  int rows = 0;
  for (int len : lengths) ends.push_back(rows += len);
  util::Rng rng(static_cast<uint64_t>(rows * 17 + lengths.size()));
  const Sequential model = RandomMlp(&rng);
  const Tensor input = RandomTensor({rows, kAgentDims.front()}, &rng);
  const Tensor grad_output = RandomTensor({rows, 1}, &rng);

  const int original = GetIntraOpThreads();
  SetIntraOpThreads(1);
  // Reference: a forward and a backward per segment, gradients
  // accumulating across them in segment order.
  Sequential reference = model;
  reference.ZeroGrads();
  std::vector<Tensor> want_input_grads;
  for (int s = 0, begin = 0; s < static_cast<int>(ends.size()); ++s) {
    reference.Forward(Rows(input, begin, ends[s]), /*training=*/true);
    want_input_grads.push_back(
        reference.Backward(Rows(grad_output, begin, ends[s])));
    begin = ends[s];
  }

  for (int threads : {1, 2, 8}) {
    SetIntraOpThreads(threads);
    for (bool params_only : {false, true}) {
      Sequential got = model;
      got.ZeroGrads();
      got.Forward(input, /*training=*/true);
      Tensor input_grad;
      if (params_only) {
        got.BackwardParams(grad_output, ends);
      } else {
        input_grad = got.Backward(grad_output, ends);
      }
      const auto want_grads = reference.Grads();
      const auto got_grads = got.Grads();
      ASSERT_EQ(got_grads.size(), want_grads.size());
      for (size_t i = 0; i < got_grads.size(); ++i) {
        EXPECT_TRUE(SameBytes(*got_grads[i], *want_grads[i]))
            << "gradient " << i << " threads " << threads << " params_only "
            << params_only;
      }
      if (params_only) continue;
      for (int s = 0, begin = 0; s < static_cast<int>(ends.size()); ++s) {
        EXPECT_TRUE(
            SameBytes(Rows(input_grad, begin, ends[s]), want_input_grads[s]))
            << "input gradient of segment " << s << " threads " << threads;
        begin = ends[s];
      }
    }
  }
  SetIntraOpThreads(original);
}

// One-row samples (the critic), ragged candidate sets (the actor) and a
// single segment (a plain batch).
INSTANTIATE_TEST_SUITE_P(Lengths, SegmentedBackwardTest,
                         ::testing::Values(std::vector<int>(32, 1),
                                           std::vector<int>{1, 3, 10, 7, 10},
                                           std::vector<int>{24}));

// A decorator that forwards only the core Layer methods, as a per-layer
// timer does: it cannot keep row segments apart.
class Forwarding final : public Layer {
 public:
  explicit Forwarding(std::unique_ptr<Layer> inner)
      : inner_(std::move(inner)) {}
  Tensor Forward(const Tensor& input, bool training) override {
    return inner_->Forward(input, training);
  }
  Tensor Backward(const Tensor& grad_output) override {
    return inner_->Backward(grad_output);
  }
  std::vector<Tensor*> Params() override { return inner_->Params(); }
  std::vector<Tensor*> Grads() override { return inner_->Grads(); }
  std::string name() const override { return "Forwarding"; }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Forwarding>(inner_->Clone());
  }

 private:
  std::unique_ptr<Layer> inner_;
};

TEST(SegmentedBackwardDeathTest, DenseBehindAForwardingLayerDies) {
  util::Rng rng(3);
  Sequential model;
  model.Add(std::make_unique<Forwarding>(std::make_unique<Dense>(4, 2, &rng)));
  const Tensor input = RandomTensor({3, 4}, &rng);
  const Tensor grad_output = RandomTensor({3, 2}, &rng);
  model.Forward(input, /*training=*/true);
  const int two[] = {1, 3};
  EXPECT_DEATH(model.Backward(grad_output, two), "row segments");
  EXPECT_DEATH(model.BackwardParams(grad_output, two), "row segments");
}

TEST(SegmentedBackwardTest, ForwardingLayersPassOneSegmentOrNoParameters) {
  util::Rng rng(4);
  Dense dense(4, 2, &rng);
  Sequential plain;
  plain.Add(dense.Clone()).Add(std::make_unique<ReLU>());
  Sequential wrapped;
  wrapped.Add(std::make_unique<Forwarding>(dense.Clone()))
      .Add(std::make_unique<Forwarding>(std::make_unique<ReLU>()));
  const Tensor input = RandomTensor({3, 4}, &rng);
  const Tensor grad_output = RandomTensor({3, 2}, &rng);
  // One segment through the decorator is its Backward.
  const int one[] = {3};
  plain.Forward(input, /*training=*/true);
  wrapped.Forward(input, /*training=*/true);
  EXPECT_TRUE(SameBytes(wrapped.Backward(grad_output, one),
                        plain.Backward(grad_output, one)));
  EXPECT_TRUE(SameBytes(*wrapped.Grads()[0], *plain.Grads()[0]));
  // A parameterless layer keeps any segmentation: its backward is per row.
  Sequential relu;
  relu.Add(std::make_unique<Forwarding>(std::make_unique<ReLU>()));
  relu.Forward(input, /*training=*/true);
  const Tensor grad = RandomTensor({3, 4}, &rng);
  const int two[] = {1, 3};
  EXPECT_TRUE(SameBytes(relu.Backward(grad, two), relu.Backward(grad)));
}

}  // namespace
}  // namespace fedmigr::nn
