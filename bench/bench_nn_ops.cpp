// Supporting microbenchmarks for the NN substrate: the kernels whose cost
// dominates simulated training (GEMM, im2col conv forward/backward, ReLU,
// one C10 net training step) plus model (de)serialization and the CRC-32
// that frames it, which bound how fast migrations and snapshots can be
// simulated.
//
// items_per_second reports FLOP/s (2 flops per multiply-accumulate). Every
// kernel runs serially on the benchmark's thread.
// scripts/bench_nn_ops.sh runs this binary and records BENCH_nn_ops.json at
// the repo root so the perf trajectory is tracked PR over PR.

#include <benchmark/benchmark.h>

#include <vector>

#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

using namespace fedmigr;

nn::Tensor RandomTensor(nn::Shape shape, uint64_t seed) {
  util::Rng rng(seed);
  nn::Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

// ------------------------------------------------------------------ GEMM --

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const nn::Tensor a = RandomTensor({n, n}, 1);
  const nn::Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    nn::Tensor c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatMulTransB(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const nn::Tensor a = RandomTensor({n, n}, 1);
  const nn::Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    nn::Tensor c = nn::MatMulTransB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(128)->Arg(512);

// The GEMMs of one C10 training step at batch 16, in the layouts and
// accumulation modes the layers issue them: conv l0 (3->8 on 8x8) and l3
// (8->16 on 4x4) forward, input gradient Kᵀ·dY and kernel gradient
// dY·colsᵀ, then Dense 64->64 forward x·Wᵀ, weight gradient dYᵀ·x and
// input gradient dY·W. l3's cout of 16 fills a panel, so Conv2dBackward
// issues its kernel gradient transposed, cols·dYᵀ (l3_dkT, last); l3_dk
// stays for comparison with earlier records. The argument indexes
// kZooGemms.
struct ZooGemm {
  const char* label;
  int m, n, k;
  bool trans_a, trans_b;
  nn::GemmAcc acc;
};

constexpr ZooGemm kZooGemms[] = {
    {"l0_fwd", 8, 64, 75, false, false, nn::GemmAcc::kSeedFromC},
    {"l0_dx", 75, 64, 8, true, false, nn::GemmAcc::kOverwrite},
    {"l0_dk", 8, 75, 64, false, true, nn::GemmAcc::kAddAfter},
    {"l3_fwd", 16, 16, 200, false, false, nn::GemmAcc::kSeedFromC},
    {"l3_dx", 200, 16, 16, true, false, nn::GemmAcc::kOverwrite},
    {"l3_dk", 16, 200, 16, false, true, nn::GemmAcc::kAddAfter},
    {"dense_fwd", 16, 64, 64, false, true, nn::GemmAcc::kOverwrite},
    {"dense_dw", 64, 64, 16, true, false, nn::GemmAcc::kAddAfter},
    {"dense_dx", 16, 64, 64, false, false, nn::GemmAcc::kOverwrite},
    {"l3_dkT", 200, 16, 16, false, true, nn::GemmAcc::kAddAfter},
};

void BM_SgemmZooShapes(benchmark::State& state) {
  const ZooGemm& g = kZooGemms[state.range(0)];
  state.SetLabel(g.label);
  const int lda = g.trans_a ? g.m : g.k;
  const int ldb = g.trans_b ? g.k : g.n;
  const nn::Tensor a = RandomTensor({g.m, g.k}, 3);
  const nn::Tensor b = RandomTensor({g.k, g.n}, 4);
  nn::Tensor c = RandomTensor({g.m, g.n}, 5);
  for (auto _ : state) {
    nn::Sgemm(g.trans_a, g.trans_b, g.m, g.n, g.k, a.data(), lda, b.data(),
              ldb, c.data(), g.n, g.acc);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * int64_t{g.m} * g.n * g.k);
}
BENCHMARK(BM_SgemmZooShapes)->DenseRange(0, 9);

// The DDPG actor's weight gradients in one train step: 32 samples of 10
// candidate rows, each sample's dYᵀ·X summed from zero and added to dW in
// sample order, for its 8->32 (arg 0) and 32->32 (arg 1) Dense layers.
// BM_SgemmSegments issues one segmented call; BM_SgemmSegmentLoop the
// kAddAfter Sgemm per segment whose bytes it reproduces.
constexpr int kActorSegments = 32;
constexpr int kActorSegmentRows = 10;

struct SegmentedDw {
  int in, out;
  nn::Tensor grad_output, input, grad_weights;
  std::vector<int> ends;

  explicit SegmentedDw(int64_t arg)
      : in(arg == 0 ? 8 : 32),
        out(32),
        grad_output(RandomTensor({kActorSegments * kActorSegmentRows, out}, 6)),
        input(RandomTensor({kActorSegments * kActorSegmentRows, in}, 7)),
        grad_weights(RandomTensor({out, in}, 8)) {
    for (int s = 1; s <= kActorSegments; ++s) {
      ends.push_back(s * kActorSegmentRows);
    }
  }
  int64_t Flops() const {
    return 2 * int64_t{out} * in * kActorSegments * kActorSegmentRows;
  }
};

void BM_SgemmSegments(benchmark::State& state) {
  SegmentedDw g(state.range(0));
  for (auto _ : state) {
    nn::SgemmSegments(true, false, g.out, g.in, g.ends, g.grad_output.data(),
                      g.out, g.input.data(), g.in, g.grad_weights.data(),
                      g.in);
    benchmark::DoNotOptimize(g.grad_weights.data());
  }
  state.SetItemsProcessed(state.iterations() * g.Flops());
}
BENCHMARK(BM_SgemmSegments)->DenseRange(0, 1);

void BM_SgemmSegmentLoop(benchmark::State& state) {
  SegmentedDw g(state.range(0));
  for (auto _ : state) {
    int k0 = 0;
    for (int k1 : g.ends) {
      nn::Sgemm(true, false, g.out, g.in, k1 - k0,
                g.grad_output.data() + int64_t{k0} * g.out, g.out,
                g.input.data() + int64_t{k0} * g.in, g.in,
                g.grad_weights.data(), g.in, nn::GemmAcc::kAddAfter);
      k0 = k1;
    }
    benchmark::DoNotOptimize(g.grad_weights.data());
  }
  state.SetItemsProcessed(state.iterations() * g.Flops());
}
BENCHMARK(BM_SgemmSegmentLoop)->DenseRange(0, 1);

// ------------------------------------------------------------------ conv --
// The two conv layers of the zoo C10/C100 CNN: 3->8 on 8x8 and 8->16 on
// 4x4, both 5x5 kernels with pad 2.

struct ConvShape {
  int cin, cout, hw;
};

constexpr ConvShape kZooConv[2] = {{3, 8, 8}, {8, 16, 4}};

int64_t ConvForwardFlops(int batch, const ConvShape& s) {
  return 2 * int64_t{batch} * s.cout * s.hw * s.hw * s.cin * 5 * 5;
}

void BM_Conv2dForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const ConvShape shape = kZooConv[static_cast<size_t>(state.range(1))];
  const nn::Tensor input =
      RandomTensor({batch, shape.cin, shape.hw, shape.hw}, 3);
  const nn::Tensor kernel = RandomTensor({shape.cout, shape.cin, 5, 5}, 4);
  const nn::Tensor bias = RandomTensor({shape.cout}, 5);
  for (auto _ : state) {
    nn::Tensor out = nn::Conv2dForward(input, kernel, bias, 2);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * ConvForwardFlops(batch, shape));
}

BENCHMARK(BM_Conv2dForward)
    ->ArgsProduct({{1, 16, 64}, {0, 1}})
    ->ArgNames({"batch", "layer"});

void BM_Conv2dBackward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const ConvShape shape = kZooConv[static_cast<size_t>(state.range(1))];
  const nn::Tensor input =
      RandomTensor({batch, shape.cin, shape.hw, shape.hw}, 6);
  const nn::Tensor kernel = RandomTensor({shape.cout, shape.cin, 5, 5}, 7);
  const nn::Tensor bias = RandomTensor({shape.cout}, 8);
  const nn::Tensor grad = nn::Conv2dForward(input, kernel, bias, 2);
  for (auto _ : state) {
    nn::Tensor grad_input, grad_kernel, grad_bias;
    nn::Conv2dBackward(input, kernel, 2, grad, &grad_input, &grad_kernel,
                       &grad_bias);
    benchmark::DoNotOptimize(grad_input.data());
  }
  // Two GEMMs (input grad + kernel grad), each the forward's volume.
  state.SetItemsProcessed(state.iterations() * 2 *
                          ConvForwardFlops(batch, shape));
}

BENCHMARK(BM_Conv2dBackward)
    ->ArgsProduct({{1, 16, 64}, {0, 1}})
    ->ArgNames({"batch", "layer"});

// One Conv2D layer's share of a local-update step at batch 16: a training
// Forward, which keeps the batch's columns in the thread's column
// workspace, then BackwardParams, which reads them for the kernel gradient.
void BM_Conv2dLayerTrainStep(benchmark::State& state) {
  const ConvShape shape = kZooConv[static_cast<size_t>(state.range(0))];
  util::Rng rng(15);
  nn::Conv2D layer(shape.cin, shape.cout, 5, 2, &rng);
  const nn::Tensor input = RandomTensor({16, shape.cin, shape.hw, shape.hw}, 16);
  const nn::Tensor grad = RandomTensor({16, shape.cout, shape.hw, shape.hw}, 17);
  for (auto _ : state) {
    nn::Tensor out = layer.Forward(input, /*training=*/true);
    benchmark::DoNotOptimize(out.data());
    layer.BackwardParams(grad);
    benchmark::ClobberMemory();
  }
  // The forward GEMM and the kernel-gradient GEMM.
  state.SetItemsProcessed(state.iterations() * 2 * ConvForwardFlops(16, shape));
}
BENCHMARK(BM_Conv2dLayerTrainStep)->DenseRange(0, 1)->ArgName("layer");

// ------------------------------------------------------------------ ReLU --
// The C10 net's first activation: [16, 8, 8, 8] after conv 0 at batch 16.
// Random-sign inputs, so a branchy kernel mispredicts about half the time.

void BM_ReLUForward(benchmark::State& state) {
  nn::ReLU relu;
  const nn::Tensor input = RandomTensor({16, 8, 8, 8}, 13);
  for (auto _ : state) {
    nn::Tensor out = relu.Forward(input, /*training=*/true);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_ReLUForward);

void BM_ReLUBackward(benchmark::State& state) {
  nn::ReLU relu;
  const nn::Tensor input = RandomTensor({16, 8, 8, 8}, 13);
  const nn::Tensor grad = RandomTensor({16, 8, 8, 8}, 14);
  (void)relu.Forward(input, /*training=*/true);
  for (auto _ : state) {
    nn::Tensor out = relu.Backward(grad);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_ReLUBackward);

// ------------------------------------------------------------ end to end --

void BM_C10NetForward(benchmark::State& state) {
  util::Rng rng(9);
  nn::Sequential model = nn::MakeC10Net(&rng);
  const nn::Tensor batch = RandomTensor({16, 3, 8, 8}, 10);
  for (auto _ : state) {
    nn::Tensor out = model.Forward(batch, /*training=*/false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_C10NetForward);

// One local-update step of the C10 net at batch 16: forward, softmax
// cross-entropy and the parameters-only backward fl::Client runs (the
// optimizer step is excluded).
void BM_C10NetTrainStep(benchmark::State& state) {
  util::Rng rng(9);
  nn::Sequential model = nn::MakeC10Net(&rng);
  const nn::Tensor batch = RandomTensor({16, 3, 8, 8}, 10);
  std::vector<int> labels(16);
  for (int i = 0; i < 16; ++i) labels[static_cast<size_t>(i)] = i % 10;
  for (auto _ : state) {
    model.ZeroGrads();
    const nn::Tensor logits = model.Forward(batch, /*training=*/true);
    const nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
    model.BackwardParams(loss.grad_logits);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_C10NetTrainStep);

void BM_SerializeModel(benchmark::State& state) {
  util::Rng rng(11);
  const nn::Sequential model = nn::MakeResMini(&rng);
  for (auto _ : state) {
    auto bytes = nn::SerializeParams(model);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * model.ByteSize());
}
BENCHMARK(BM_SerializeModel);

void BM_DeserializeModel(benchmark::State& state) {
  util::Rng rng(12);
  nn::Sequential model = nn::MakeResMini(&rng);
  const auto bytes = nn::SerializeParams(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::DeserializeParams(bytes, &model).ok());
  }
  state.SetBytesProcessed(state.iterations() * model.ByteSize());
}
BENCHMARK(BM_DeserializeModel);

// CRC-32 over a buffer the size of a fedmigr-durable snapshot frame
// (415323 bytes); snapshots, the journal and checkpoints all frame their
// bytes with it.
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
  util::Rng rng(18);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(415323);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("gemm_kernel", fedmigr::nn::GemmKernelName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
