// Row independence of an MLP forward: stacking the rows of several inputs
// into one Sequential::Forward gives each row the bytes its own forward
// gives. The DDPG train step relies on it to run its fixed-weight passes
// (target actor, target critic, critic baseline) once per batch instead of
// once per sample. It follows from the GEMM contract (DESIGN §8: each
// element of C is one in-order k-chain, whatever the tiling, packing or
// thread count) plus Dense's per-element bias add and ReLU's elementwise
// select; this test pins it for the agent's network shape.

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "nn/gemm.h"
#include "nn/sequential.h"
#include "nn/zoo.h"
#include "rl/state.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

// rl::DdpgAgent's actor and critic: kActionFeatureDim -> hidden -> hidden
// -> 1, with the default hidden width of 32.
const std::vector<int> kAgentDims = {rl::kActionFeatureDim, 32, 32, 1};

Tensor RandomRows(int rows, util::Rng* rng) {
  Tensor t({rows, rl::kActionFeatureDim});
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Normal(0.0, 1.0));
  }
  return t;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  int rows = 0;
  for (const Tensor& p : parts) rows += p.dim(0);
  Tensor out({rows, parts[0].dim(1)});
  float* dst = out.data();
  for (const Tensor& p : parts) {
    std::memcpy(dst, p.data(), static_cast<size_t>(p.size()) * sizeof(float));
    dst += p.size();
  }
  return out;
}

// (total rows, rows per input): singleton inputs, and candidate-set blocks
// of up to 10 rows like the train step stacks.
class MlpRowStackingTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MlpRowStackingTest, StackedForwardMatchesSeparateForwardsBytewise) {
  const auto [total, block] = GetParam();
  util::Rng rng(static_cast<uint64_t>(total * 31 + block));
  Sequential model = MakeMlp(kAgentDims, &rng);
  // A trained agent's biases are not zero, and a zero bias would hide an
  // add whose rounding depends on the stacking.
  for (Tensor* param : model.Params()) {
    for (int64_t i = 0; i < param->size(); ++i) {
      (*param)[i] = static_cast<float>(rng.Normal(0.0, 0.5));
    }
  }

  std::vector<Tensor> parts;
  for (int done = 0; done < total;) {
    const int rows = std::min(block, total - done);
    parts.push_back(RandomRows(rows, &rng));
    done += rows;
  }

  const int original = GetIntraOpThreads();
  SetIntraOpThreads(1);
  std::vector<Tensor> want;
  for (const Tensor& p : parts) want.push_back(model.Forward(p, false));

  const Tensor stacked = Stack(parts);
  for (int threads : {1, 2, 8}) {
    SetIntraOpThreads(threads);
    for (bool training : {false, true}) {
      const Tensor got = model.Forward(stacked, training);
      ASSERT_EQ(got.shape(), (Shape{total, 1}));
      const float* row = got.data();
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::memcmp(row, want[i].data(),
                              static_cast<size_t>(want[i].size()) *
                                  sizeof(float)),
                  0)
            << "input " << i << ", " << threads << " threads, training "
            << training;
        row += want[i].size();
      }
    }
  }
  SetIntraOpThreads(original);
}

INSTANTIATE_TEST_SUITE_P(RowsAndBlocks, MlpRowStackingTest,
                         ::testing::Combine(::testing::Values(1, 3, 10, 331),
                                            ::testing::Values(1, 10)));

}  // namespace
}  // namespace fedmigr::nn
