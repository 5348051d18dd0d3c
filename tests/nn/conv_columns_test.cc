// Conv2D's forward and backward must leave the same gradient bytes however
// the two calls are separated: by other models' forwards on the same
// thread, by a thread switch, or by an inference forward of the same layer
// (after which Backward differentiates that inference forward, as the
// Layer contract says). The reference in every case is a fresh clone that
// runs Forward(training) and then Backward back to back. The per-thread
// column workspace that carries the columns between the two calls stays
// one training step in size.

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/scratch.h"
#include "nn/sequential.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

Tensor RandomTensor(Shape shape, uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

struct ConvLayerCase {
  const char* name;
  int cin, cout, hw, k, pad;
};

void PrintTo(const ConvLayerCase& c, std::ostream* os) { *os << c.name; }

struct Result {
  Tensor grad_input;
  std::vector<Tensor> grads;
};

std::vector<Tensor> CopyGrads(Layer* layer) {
  std::vector<Tensor> out;
  for (Tensor* g : layer->Grads()) out.push_back(*g);
  return out;
}

void ZeroGrads(Layer* layer) {
  for (Tensor* g : layer->Grads()) g->Zero();
}

void ExpectSame(const Result& got, const Result& want,
                const std::string& where) {
  EXPECT_TRUE(SameBytes(got.grad_input, want.grad_input)) << where;
  ASSERT_EQ(got.grads.size(), want.grads.size()) << where;
  for (size_t i = 0; i < want.grads.size(); ++i) {
    EXPECT_TRUE(SameBytes(got.grads[i], want.grads[i]))
        << where << ", grad " << i;
  }
}

class ConvColumnReuseTest : public ::testing::TestWithParam<ConvLayerCase> {
 protected:
  std::unique_ptr<Conv2D> MakeLayer(uint64_t seed) const {
    const ConvLayerCase& c = GetParam();
    util::Rng rng(seed);
    return std::make_unique<Conv2D>(c.cin, c.cout, c.k, c.pad, &rng);
  }

  Tensor Input(int batch, uint64_t seed) const {
    const ConvLayerCase& c = GetParam();
    return RandomTensor({batch, c.cin, c.hw, c.hw}, seed);
  }

  Tensor GradOutput(int batch, uint64_t seed) const {
    const ConvLayerCase& c = GetParam();
    const int o = c.hw + 2 * c.pad - c.k + 1;
    return RandomTensor({batch, c.cout, o, o}, seed);
  }

  // A fresh clone of `layer` runs Forward(training) then Backward.
  static Result Fresh(const Conv2D& layer, const Tensor& input,
                      const Tensor& grad_output) {
    std::unique_ptr<Layer> twin = layer.Clone();
    (void)twin->Forward(input, /*training=*/true);
    Result r;
    r.grad_input = twin->Backward(grad_output);
    r.grads = CopyGrads(twin.get());
    return r;
  }

  static Result Backward(Conv2D* layer, const Tensor& grad_output) {
    Result r;
    r.grad_input = layer->Backward(grad_output);
    r.grads = CopyGrads(layer);
    return r;
  }
};

// Forward then Backward (or BackwardParams) step after step, with the batch
// growing, shrinking and growing again.
TEST_P(ConvColumnReuseTest, NormalStep) {
  auto layer = MakeLayer(1);
  int step = 0;
  for (int batch : {16, 5, 32, 16, 1}) {
    const Tensor x = Input(batch, 10 + step);
    const Tensor g = GradOutput(batch, 20 + step);
    const Result want = Fresh(*layer, x, g);
    ZeroGrads(layer.get());
    (void)layer->Forward(x, /*training=*/true);
    if (step % 2 == 0) {
      ExpectSame(Backward(layer.get(), g), want,
                 "Backward, batch " + std::to_string(batch));
    } else {
      layer->BackwardParams(g);
      Result got{want.grad_input, CopyGrads(layer.get())};
      ExpectSame(got, want, "BackwardParams, batch " + std::to_string(batch));
    }
    ++step;
  }
}

// Other layers' training forwards on the same thread between this layer's
// forward and backward: one, and more than any small per-thread cache
// holds.
TEST_P(ConvColumnReuseTest, OtherModelsForwardInBetween) {
  for (int others : {1, 3, 9}) {
    auto layer = MakeLayer(2);
    const Tensor x = Input(16, 30);
    const Tensor g = GradOutput(16, 31);
    const Result want = Fresh(*layer, x, g);
    (void)layer->Forward(x, /*training=*/true);
    std::vector<std::unique_ptr<Conv2D>> other_layers;
    for (int i = 0; i < others; ++i) {
      other_layers.push_back(MakeLayer(100 + static_cast<uint64_t>(i)));
      (void)other_layers.back()->Forward(Input(16 + i, 40 + i),
                                         /*training=*/true);
    }
    ExpectSame(Backward(layer.get(), g), want,
               std::to_string(others) + " other forwards");
    // The other layers' own backwards still see their own inputs.
    for (int i = 0; i < others; ++i) {
      const Tensor xi = Input(16 + i, 40 + i);
      const Tensor gi = GradOutput(16 + i, 50 + i);
      Conv2D* other = other_layers[static_cast<size_t>(i)].get();
      const Result want_i = Fresh(*other, xi, gi);
      ExpectSame(Backward(other, gi), want_i,
                 "other layer " + std::to_string(i));
    }
  }
}

// Forward on one thread, backward on another, in both directions.
TEST_P(ConvColumnReuseTest, BackwardOnAnotherThread) {
  auto layer = MakeLayer(3);
  const Tensor x = Input(16, 60);
  const Tensor g = GradOutput(16, 61);
  const Result want = Fresh(*layer, x, g);

  (void)layer->Forward(x, /*training=*/true);
  Result got;
  std::thread([&] { got = Backward(layer.get(), g); }).join();
  ExpectSame(got, want, "backward on a worker thread");

  ZeroGrads(layer.get());
  std::thread([&] { (void)layer->Forward(x, /*training=*/true); }).join();
  ExpectSame(Backward(layer.get(), g), want, "forward on a worker thread");
}

// An inference forward after a training forward: Backward differentiates
// the most recent forward, the inference one.
TEST_P(ConvColumnReuseTest, InferenceForwardInBetween) {
  auto layer = MakeLayer(4);
  const Tensor x_train = Input(16, 70);
  const Tensor x_eval = Input(16, 71);
  const Tensor g = GradOutput(16, 72);
  const Result want = Fresh(*layer, x_eval, g);
  (void)layer->Forward(x_train, /*training=*/true);
  (void)layer->Forward(x_eval, /*training=*/false);
  ExpectSame(Backward(layer.get(), g), want, "inference forward between");

  // A different batch size for the inference forward.
  const Tensor x_small = Input(3, 73);
  const Tensor g_small = GradOutput(3, 74);
  const Result want_small = Fresh(*layer, x_small, g_small);
  ZeroGrads(layer.get());
  (void)layer->Forward(x_train, /*training=*/true);
  (void)layer->Forward(x_small, /*training=*/false);
  ExpectSame(Backward(layer.get(), g_small), want_small,
             "smaller inference batch between");
}

// The zoo C10/C100 convs (8- and 4-wide outputs), and a 3-wide output.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvColumnReuseTest,
    ::testing::Values(ConvLayerCase{"zoo0", 3, 8, 8, 5, 2},
                      ConvLayerCase{"zoo1", 8, 16, 4, 5, 2},
                      ConvLayerCase{"ow3", 2, 4, 3, 3, 1}),
    [](const auto& info) { return std::string(info.param.name); });

// Trains a C10 net for a few SGD steps and returns its Grads() bytes after
// the last step.
std::vector<Tensor> TrainC10(uint64_t seed, int steps) {
  util::Rng rng(seed);
  Sequential model = MakeC10Net(&rng);
  Sgd sgd(0.05);
  std::vector<int> labels(16);
  for (int step = 0; step < steps; ++step) {
    const Tensor x =
        RandomTensor({16, kImageChannels, kImageSize, kImageSize},
                     seed * 1000 + static_cast<uint64_t>(step));
    for (int i = 0; i < 16; ++i) {
      labels[static_cast<size_t>(i)] = (i + step) % 10;
    }
    model.ZeroGrads();
    const Tensor logits = model.Forward(x, /*training=*/true);
    model.BackwardParams(SoftmaxCrossEntropy(logits, labels).grad_logits);
    sgd.Step(&model);
  }
  std::vector<Tensor> grads;
  for (Tensor* g : model.Grads()) grads.push_back(*g);
  return grads;
}

// Two threads training their own models at once leave the bytes a serial
// run leaves.
TEST(ConvColumnReuseConcurrencyTest, TwoThreadsTrainConcurrently) {
  const std::vector<Tensor> want_a = TrainC10(5, 6);
  const std::vector<Tensor> want_b = TrainC10(6, 6);
  std::vector<Tensor> got_a, got_b;
  std::thread ta([&] { got_a = TrainC10(5, 6); });
  std::thread tb([&] { got_b = TrainC10(6, 6); });
  ta.join();
  tb.join();
  ASSERT_EQ(got_a.size(), want_a.size());
  ASSERT_EQ(got_b.size(), want_b.size());
  for (size_t i = 0; i < want_a.size(); ++i) {
    EXPECT_TRUE(SameBytes(got_a[i], want_a[i])) << "model a, grad " << i;
    EXPECT_TRUE(SameBytes(got_b[i], want_b[i])) << "model b, grad " << i;
  }
}

// One thread training 50 distinct C10 nets, one after another, holds one
// step of columns: 4800 floats per image for conv 0 (3*5*5 rows x 8*8) and
// 3200 for conv 1 (8*5*5 x 4*4), at batch 16.
TEST(ConvColumnReuseWorkspaceTest, HoldsOneStepAfterFiftyModels) {
  int64_t capacity = -1;
  std::thread([&] {
    for (uint64_t model = 0; model < 50; ++model) (void)TrainC10(100 + model, 2);
    capacity = ColumnWorkspace::ThreadLocal().capacity();
  }).join();
  EXPECT_EQ(capacity, (4800 + 3200) * 16);
}

TEST(ColumnWorkspaceTest, TokensFindTheirSlotUntilReleasedOrEvicted) {
  std::thread([] {
    ColumnWorkspace& ws = ColumnWorkspace::ThreadLocal();
    ColumnWorkspace::Token a, b;
    EXPECT_EQ(ws.Find(a), nullptr);  // an empty Token owns nothing
    float* pa = ws.Acquire(100, &a);
    float* pb = ws.Acquire(50, &b);
    EXPECT_NE(pa, pb);
    EXPECT_EQ(ws.Find(a), pa);
    EXPECT_EQ(ws.Find(b), pb);
    ws.Release(&a);
    EXPECT_EQ(ws.Find(a), nullptr);
    // A copy of a released Token does not own the slot either, and the
    // lowest free slot is reused without growing.
    const ColumnWorkspace::Token stale = b;
    ws.Release(&b);
    ColumnWorkspace::Token c;
    EXPECT_EQ(ws.Acquire(80, &c), pa);
    EXPECT_EQ(ws.Find(stale), nullptr);
    EXPECT_EQ(ws.capacity(), 150);

    // With every slot busy, the least recently acquired one is evicted.
    std::vector<ColumnWorkspace::Token> more(ColumnWorkspace::kSlots);
    for (ColumnWorkspace::Token& t : more) (void)ws.Acquire(10, &t);
    EXPECT_EQ(ws.Find(c), nullptr);
    for (const ColumnWorkspace::Token& t : more) EXPECT_NE(ws.Find(t), nullptr);

    // Another thread's workspace neither finds nor frees this one's slots.
    ColumnWorkspace::Token shared = more.back();
    std::thread([&shared] {
      ColumnWorkspace& other = ColumnWorkspace::ThreadLocal();
      EXPECT_EQ(other.Find(shared), nullptr);
      other.Release(&shared);
    }).join();
    EXPECT_NE(ws.Find(more.back()), nullptr);
  }).join();
}

}  // namespace
}  // namespace fedmigr::nn
