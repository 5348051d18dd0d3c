// Kernel-equivalence and determinism contract for the GEMM layer.
//
// Equivalence: over adversarial shapes — dimensions straddling the
// micro-tile (4, 8) and column-panel (16) boundaries and 64 rows, pads 0–2,
// channel counts 1–9 — the MatMul wrappers must reproduce, byte for byte,
// the scalar in-order k-chain below, and the im2col conv lowering must agree
// with the direct loops of conv_reference.h within a tolerance loose enough
// for a different summation order, tight enough to catch any indexing
// mistake. (The case names' "Naive" is these test-local references.)
//
// Bit identity: the conv kernels must reproduce, byte for byte, a frozen
// copy of the per-image im2col lowering they replaced (same GEMM calls,
// same reduction trees), so a lowering rewrite cannot move a float.

#include "nn/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "conv_reference.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/tensor_helpers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

// Max |a-b| scaled by the largest magnitude involved, so the bound tracks
// the reduction depth rather than the raw values.
float RelativeDiff(const Tensor& a, const Tensor& b) {
  float max_mag = 1.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_mag = std::max({max_mag, std::fabs(a[i]), std::fabs(b[i])});
  }
  return MaxAbsDiff(a, b) / max_mag;
}

constexpr float kTol = 2e-5f;

// ------------------------------------------------------ GEMM, bit for bit --
// The determinism contract in gemm.h, stated as a reference: every element
// of C is one in-order chain over k, seeded from 0 (kOverwrite, kAddAfter)
// or from C (kSeedFromC), each step a fused multiply-add on the AVX2+FMA
// kernel and a rounded product then an add on the portable one; kAddAfter
// adds the finished chain to C once. Sgemm must reproduce these bytes for
// every shape, transposition, accumulation mode and leading dimension,
// however it tiles or packs its operands.

float ChainStep(float acc, float a, float b, bool fused) {
  if (fused) return std::fma(a, b, acc);
  // A volatile round trip rounds the product on its own, so the reference
  // stays mul-then-add even where the compiler would contract it.
  volatile float product = a * b;
  return acc + product;
}

void ReferenceSgemm(bool trans_a, bool trans_b, int m, int n, int k,
                    const float* a, int lda, const float* b, int ldb,
                    float* c, int ldc, GemmAcc acc, bool fused) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float* cij = c + static_cast<int64_t>(i) * ldc + j;
      float sum = acc == GemmAcc::kSeedFromC ? *cij : 0.0f;
      for (int p = 0; p < k; ++p) {
        const float ap = trans_a ? a[static_cast<int64_t>(p) * lda + i]
                                 : a[static_cast<int64_t>(i) * lda + p];
        const float bp = trans_b ? b[static_cast<int64_t>(j) * ldb + p]
                                 : b[static_cast<int64_t>(p) * ldb + j];
        sum = ChainStep(sum, ap, bp, fused);
      }
      *cij = acc == GemmAcc::kAddAfter ? *cij + sum : sum;
    }
  }
}

// ---------------------------------------------------- MatMul, bit for bit --
// The wrappers' transposition flags and leading dimensions, pinned against
// the same in-order k-chain as Sgemm itself.

bool FusedKernel() { return GemmByteFamily() == "fused"; }

void ExpectSameBytes(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.SameShape(want));
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(got.size()) * sizeof(float)),
            0);
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatMulMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const Tensor a = RandomTensor({m, k}, 1000 + static_cast<uint64_t>(m));
  const Tensor b = RandomTensor({k, n}, 2000 + static_cast<uint64_t>(n));
  Tensor want({m, n});
  ReferenceSgemm(false, false, m, n, k, a.data(), k, b.data(), n, want.data(),
                 n, GemmAcc::kOverwrite, FusedKernel());
  ExpectSameBytes(MatMul(a, b), want);
}

TEST_P(GemmShapeTest, MatMulTransAMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const Tensor a = RandomTensor({k, m}, 3000 + static_cast<uint64_t>(m));
  const Tensor b = RandomTensor({k, n}, 4000 + static_cast<uint64_t>(n));
  Tensor want({m, n});
  ReferenceSgemm(true, false, m, n, k, a.data(), m, b.data(), n, want.data(),
                 n, GemmAcc::kOverwrite, FusedKernel());
  ExpectSameBytes(MatMulTransA(a, b), want);
}

TEST_P(GemmShapeTest, MatMulTransBMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const Tensor a = RandomTensor({m, k}, 5000 + static_cast<uint64_t>(m));
  const Tensor b = RandomTensor({n, k}, 6000 + static_cast<uint64_t>(n));
  Tensor want({m, n});
  ReferenceSgemm(false, true, m, n, k, a.data(), k, b.data(), k, want.data(),
                 n, GemmAcc::kOverwrite, FusedKernel());
  ExpectSameBytes(MatMulTransB(a, b), want);
}

// Shapes chosen to straddle every blocking boundary: micro-tile rows (4 on
// the AVX2 and portable kernels, 8 on AVX-512), panel columns (16),
// parallel row-blocks (64), plus degenerate 1s.
INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(4, 16, 8), std::make_tuple(5, 17, 9),
                      std::make_tuple(63, 31, 33), std::make_tuple(64, 16, 64),
                      std::make_tuple(65, 15, 130), std::make_tuple(1, 129, 2),
                      std::make_tuple(129, 1, 65), std::make_tuple(70, 70, 70),
                      std::make_tuple(7, 11, 9), std::make_tuple(9, 75, 8),
                      std::make_tuple(17, 8, 15)),
    [](const auto& info) {
      std::string name = "m";
      name.append(std::to_string(std::get<0>(info.param)))
          .append("n")
          .append(std::to_string(std::get<1>(info.param)))
          .append("k")
          .append(std::to_string(std::get<2>(info.param)));
      return name;
    });

std::vector<float> RandomFloats(int64_t count, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

struct GemmCase {
  const char* name;
  int m, n, k;
};

void PrintTo(const GemmCase& c, std::ostream* os) { *os << c.name; }

class GemmBitExactTest : public ::testing::TestWithParam<GemmCase> {};

// Sgemm against ReferenceSgemm for one shape: every transposition, minimal
// and padded leading dimensions and every accumulation mode.
void ExpectMatchesInOrderKChain(const GemmCase& c) {
  const bool fused = FusedKernel();
  uint64_t seed = static_cast<uint64_t>(c.m * 10007 + c.n * 101 + c.k);
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      // Leading dimensions at the minimum, then padded past it; the padding
      // of A and B holds values that must not be read into C, and the
      // padding of C must come back untouched.
      for (int ld_pad : {0, 5}) {
        const int lda = (trans_a ? c.m : c.k) + ld_pad;
        const int ldb = (trans_b ? c.k : c.n) + ld_pad;
        const int ldc = c.n + ld_pad;
        const std::vector<float> a = RandomFloats(
            static_cast<int64_t>(trans_a ? c.k : c.m) * lda, ++seed);
        const std::vector<float> b = RandomFloats(
            static_cast<int64_t>(trans_b ? c.n : c.k) * ldb, ++seed);
        const std::vector<float> c0 =
            RandomFloats(static_cast<int64_t>(c.m) * ldc, ++seed);
        for (GemmAcc acc : {GemmAcc::kOverwrite, GemmAcc::kSeedFromC,
                            GemmAcc::kAddAfter}) {
          std::vector<float> want = c0;
          ReferenceSgemm(trans_a, trans_b, c.m, c.n, c.k, a.data(), lda,
                         b.data(), ldb, want.data(), ldc, acc, fused);
          std::vector<float> got = c0;
          Sgemm(trans_a, trans_b, c.m, c.n, c.k, a.data(), lda, b.data(), ldb,
                got.data(), ldc, acc);
          EXPECT_EQ(
              std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
              << "trans_a " << trans_a << " trans_b " << trans_b << " ld_pad "
              << ld_pad << " acc " << static_cast<int>(acc);
        }
      }
    }
  }
}

TEST_P(GemmBitExactTest, MatchesInOrderKChain) {
  ExpectMatchesInOrderKChain(GetParam());
}

// The nine GEMMs of a C10 training step at batch 16 (conv l0 and l3:
// forward, input gradient Kᵀ·dY and kernel gradient dY·colsᵀ; Dense 64→64:
// forward x·Wᵀ, weight gradient dYᵀ·x and input gradient dY·W), then the
// blocking-boundary shapes of GemmShapeTest, then one GEMM large enough to
// pack both operands. Each case runs
// every transposition, so the zoo shapes' own layouts are among them.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBitExactTest,
    ::testing::Values(
        GemmCase{"l0_fwd", 8, 64, 75}, GemmCase{"l0_dx", 75, 64, 8},
        GemmCase{"l0_dk", 8, 75, 64}, GemmCase{"l3_fwd", 16, 16, 200},
        GemmCase{"l3_dx", 200, 16, 16}, GemmCase{"l3_dk", 16, 200, 16},
        GemmCase{"dense_fwd", 16, 64, 64}, GemmCase{"dense_dw", 64, 64, 16},
        GemmCase{"dense_dx", 16, 64, 64}, GemmCase{"m1n1k1", 1, 1, 1},
        GemmCase{"m3n5k7", 3, 5, 7}, GemmCase{"m4n16k8", 4, 16, 8},
        GemmCase{"m5n17k9", 5, 17, 9}, GemmCase{"m63n31k33", 63, 31, 33},
        GemmCase{"m64n16k64", 64, 16, 64},
        GemmCase{"m65n15k130", 65, 15, 130},
        GemmCase{"m1n129k2", 1, 129, 2}, GemmCase{"m129n1k65", 129, 1, 65},
        GemmCase{"m70n70k70", 70, 70, 70},
        GemmCase{"m131n90k130", 131, 90, 130}),
    [](const auto& info) { return std::string(info.param.name); });

// Every m around the 4- and 8-row tiles and at 64 rows against every
// n around the 16-column panel (1, a half panel, edge columns, full
// panels, a zoo edge), once with a short k (operands read in
// place where the tile is full) and once with k just past the in-place rule
// (m*k + k*n > 16384: every panel of A and B packed).
class GemmTileSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(GemmTileSweepTest, MatchesInOrderKChain) {
  const auto [m, n, packed] = GetParam();
  const int k = packed ? 16384 / (m + n) + 1 : 9;
  ExpectMatchesInOrderKChain(GemmCase{"sweep", m, n, k});
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, GemmTileSweepTest,
    ::testing::Combine(
        ::testing::Values(1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200),
        ::testing::Values(1, 8, 11, 15, 16, 17, 75), ::testing::Bool()),
    [](const auto& info) {
      std::string name = "m";
      name.append(std::to_string(std::get<0>(info.param)))
          .append("n")
          .append(std::to_string(std::get<1>(info.param)))
          .append(std::get<2>(info.param) ? "_packed" : "_in_place");
      return name;
    });

// ------------------------------------------- segmented K, bit for bit --
// SgemmSegments against its contract in gemm.h: one kAddAfter Sgemm per
// segment, run in order on the segment's slices of A and B. Ragged
// segments (an empty one among them), both transpositions, padded leading
// dimensions, edge tiles in m and n, a row count past 64, and a shape whose
// whole k range is past the in-place rule while each segment is within it.
// CI runs it under both micro-kernels.

struct SegmentsCase {
  const char* name;
  int m, n;
  std::vector<int> lengths;  // segment lengths, in order
};

void PrintTo(const SegmentsCase& c, std::ostream* os) { *os << c.name; }

class GemmSegmentsTest : public ::testing::TestWithParam<SegmentsCase> {};

TEST_P(GemmSegmentsTest, MatchesOneAddAfterSgemmPerSegment) {
  const SegmentsCase& c = GetParam();
  std::vector<int> ends;
  int k = 0;
  for (int len : c.lengths) ends.push_back(k += len);
  uint64_t seed = static_cast<uint64_t>(c.m * 131 + c.n * 7 + k);
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (int ld_pad : {0, 3}) {
        const int lda = (trans_a ? c.m : k) + ld_pad;
        const int ldb = (trans_b ? k : c.n) + ld_pad;
        const int ldc = c.n + ld_pad;
        const std::vector<float> a = RandomFloats(
            static_cast<int64_t>(trans_a ? k : c.m) * lda, ++seed);
        const std::vector<float> b = RandomFloats(
            static_cast<int64_t>(trans_b ? c.n : k) * ldb, ++seed);
        const std::vector<float> c0 =
            RandomFloats(static_cast<int64_t>(c.m) * ldc, ++seed);

        std::vector<float> want = c0;
        for (int k0 = 0; const int k1 : ends) {
          Sgemm(trans_a, trans_b, c.m, c.n, k1 - k0,
                trans_a ? a.data() + static_cast<int64_t>(k0) * lda
                        : a.data() + k0,
                lda,
                trans_b ? b.data() + k0
                        : b.data() + static_cast<int64_t>(k0) * ldb,
                ldb, want.data(), ldc, GemmAcc::kAddAfter);
          k0 = k1;
        }
        std::vector<float> got = c0;
        SgemmSegments(trans_a, trans_b, c.m, c.n, ends, a.data(), lda,
                      b.data(), ldb, got.data(), ldc);
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
            << "trans_a " << trans_a << " trans_b " << trans_b << " ld_pad "
            << ld_pad;
      }
    }
  }
}

// The DDPG actor's and critic's weight gradients (32 -> 32 and 8 -> 32
// over 10-row candidate sets, 32 -> 1, one-row samples), ragged lengths
// 1, 3 and 10 on edge tiles in m and n, an empty segment, one segment,
// more than 64 rows, a k range past the in-place rule, and empty
// segments first, last and in runs on full and edge 8-row tiles.
std::vector<int> Repeat(int length, int count) {
  return std::vector<int>(static_cast<size_t>(count), length);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSegmentsTest,
    ::testing::Values(
        SegmentsCase{"actor_dw_32x32", 32, 32, Repeat(10, 32)},
        SegmentsCase{"actor_dw_32x8", 32, 8, Repeat(10, 32)},
        SegmentsCase{"critic_dw_1x32", 1, 32, Repeat(1, 32)},
        SegmentsCase{"ragged_m5n17", 5, 17, {1, 3, 10}},
        SegmentsCase{"ragged_m3n33", 3, 33, {10, 1, 3, 3, 1}},
        SegmentsCase{"empty_segment", 7, 19, {3, 0, 10, 1}},
        SegmentsCase{"one_segment", 9, 18, {14}},
        SegmentsCase{"rows_split", 131, 21, {1, 3, 10, 10, 3}},
        SegmentsCase{"past_in_place", 70, 70, {10, 1, 3, 100, 90}},
        SegmentsCase{"empty_ends_m8n75", 8, 75, {0, 5, 0, 7, 0}},
        SegmentsCase{"empty_runs_m17n11", 17, 11, {0, 0, 4, 0, 0, 9}},
        SegmentsCase{"empty_tiles_m200n16", 200, 16, {16, 0, 16, 0, 3}}),
    [](const auto& info) { return std::string(info.param.name); });

// --------------------------------------------------- Conv vs direct loops --

class ConvLoweringTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ConvLoweringTest, ForwardAndBackwardMatchNaive) {
  const auto [cin, cout, size, ksize, pad] = GetParam();
  const uint64_t seed =
      static_cast<uint64_t>(cin * 1000 + cout * 100 + size * 10 + pad);
  const Tensor input = RandomTensor({3, cin, size, size}, seed);
  const Tensor kernel = RandomTensor({cout, cin, ksize, ksize}, seed + 1);
  const Tensor bias = RandomTensor({cout}, seed + 2);

  const Tensor out = Conv2dForward(input, kernel, bias, pad);
  const Tensor ref = testing::ReferenceConv(input, kernel, bias, pad);
  ASSERT_TRUE(out.SameShape(ref));
  EXPECT_LT(RelativeDiff(out, ref), kTol);

  const Tensor grad_out = RandomTensor(out.shape(), seed + 3);
  Tensor gin, gker, gbias, gin_ref, gker_ref, gbias_ref;
  Conv2dBackward(input, kernel, pad, grad_out, &gin, &gker, &gbias);
  testing::ReferenceConvBackward(input, kernel, pad, grad_out, &gin_ref,
                                 &gker_ref, &gbias_ref);
  EXPECT_LT(RelativeDiff(gin, gin_ref), kTol);
  EXPECT_LT(RelativeDiff(gker, gker_ref), kTol);
  EXPECT_LT(RelativeDiff(gbias, gbias_ref), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, ConvLoweringTest,
    ::testing::Values(std::make_tuple(1, 1, 4, 3, 0),
                      std::make_tuple(1, 9, 5, 3, 1),
                      std::make_tuple(9, 1, 6, 3, 2),
                      std::make_tuple(3, 8, 8, 5, 2),
                      std::make_tuple(5, 7, 7, 5, 1),
                      std::make_tuple(2, 4, 9, 1, 0),
                      std::make_tuple(4, 6, 6, 5, 2),
                      std::make_tuple(7, 3, 10, 3, 1)),
    [](const auto& info) {
      return "cin" + std::to_string(std::get<0>(info.param)) + "cout" +
             std::to_string(std::get<1>(info.param)) + "s" +
             std::to_string(std::get<2>(info.param)) + "k" +
             std::to_string(std::get<3>(info.param)) + "p" +
             std::to_string(std::get<4>(info.param));
    });

// ------------------------------------------- conv lowering, bit for bit --
// A frozen copy of the per-image lowering the conv kernels shipped with:
// branchy Im2col/Col2im that zero or skip the padding border row by row,
// one Sgemm per image, and per-image kernel-gradient partials summed in
// image order. Any rewrite of the lowering must reproduce these bytes
// exactly, under every micro-kernel.

void ReferenceIm2col(const float* in, int cin, int h, int w, int kh, int kw,
                     int pad, int oh, int ow, float* cols) {
  float* dst = cols;
  for (int ic = 0; ic < cin; ++ic) {
    const float* in_c = in + static_cast<int64_t>(ic) * h * w;
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const int x_lo = std::max(0, pad - kx);
        const int x_hi = std::min(ow, w + pad - kx);
        for (int oy = 0; oy < oh; ++oy, dst += ow) {
          const int iy = oy + ky - pad;
          if (iy < 0 || iy >= h || x_hi <= x_lo) {
            std::memset(dst, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          for (int ox = 0; ox < x_lo; ++ox) dst[ox] = 0.0f;
          std::memcpy(dst + x_lo, in_c + iy * w + (x_lo + kx - pad),
                      static_cast<size_t>(x_hi - x_lo) * sizeof(float));
          for (int ox = x_hi; ox < ow; ++ox) dst[ox] = 0.0f;
        }
      }
    }
  }
}

void ReferenceCol2im(const float* cols, int cin, int h, int w, int kh, int kw,
                     int pad, int oh, int ow, float* gin) {
  const float* src = cols;
  for (int ic = 0; ic < cin; ++ic) {
    float* gin_c = gin + static_cast<int64_t>(ic) * h * w;
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const int x_lo = std::max(0, pad - kx);
        const int x_hi = std::min(ow, w + pad - kx);
        for (int oy = 0; oy < oh; ++oy, src += ow) {
          const int iy = oy + ky - pad;
          if (iy < 0 || iy >= h || x_hi <= x_lo) continue;
          float* gin_row = gin_c + iy * w + (x_lo + kx - pad);
          for (int ox = x_lo; ox < x_hi; ++ox) gin_row[ox - x_lo] += src[ox];
        }
      }
    }
  }
}

struct ConvGrads {
  Tensor input, kernel, bias;
};

struct ConvCase {
  const char* name;
  int cin, cout, h, w, kh, kw, pad;
};

void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

struct ConvDims {
  int batch, cin, cout, h, w, kh, kw, pad, oh, ow, kcols, ohw;
};

ConvDims DimsOf(const Tensor& input, const Tensor& kernel, int pad) {
  ConvDims d;
  d.batch = input.dim(0);
  d.cin = input.dim(1);
  d.h = input.dim(2);
  d.w = input.dim(3);
  d.cout = kernel.dim(0);
  d.kh = kernel.dim(2);
  d.kw = kernel.dim(3);
  d.pad = pad;
  d.oh = d.h + 2 * pad - d.kh + 1;
  d.ow = d.w + 2 * pad - d.kw + 1;
  d.kcols = d.cin * d.kh * d.kw;
  d.ohw = d.oh * d.ow;
  return d;
}

Tensor ReferenceConvForward(const Tensor& input, const Tensor& kernel,
                            const Tensor& bias, int pad) {
  const ConvDims d = DimsOf(input, kernel, pad);
  Tensor output({d.batch, d.cout, d.oh, d.ow});
  const int64_t in_img = static_cast<int64_t>(d.cin) * d.h * d.w;
  const int64_t out_img = static_cast<int64_t>(d.cout) * d.ohw;
  std::vector<float> cols(static_cast<size_t>(d.kcols) * d.ohw);
  for (int img = 0; img < d.batch; ++img) {
    ReferenceIm2col(input.data() + img * in_img, d.cin, d.h, d.w, d.kh, d.kw,
                    d.pad, d.oh, d.ow, cols.data());
    float* out_n = output.data() + img * out_img;
    for (int oc = 0; oc < d.cout; ++oc) {
      std::fill(out_n + static_cast<int64_t>(oc) * d.ohw,
                out_n + static_cast<int64_t>(oc + 1) * d.ohw, bias[oc]);
    }
    Sgemm(false, false, d.cout, d.ohw, d.kcols, kernel.data(), d.kcols,
          cols.data(), d.ohw, out_n, d.ohw, GemmAcc::kSeedFromC);
  }
  return output;
}

ConvGrads ReferenceConvBackward(const Tensor& input, const Tensor& kernel,
                                int pad, const Tensor& grad_output) {
  const ConvDims d = DimsOf(input, kernel, pad);
  ConvGrads g{Tensor(input.shape()), Tensor(kernel.shape()),
              Tensor(Shape{d.cout})};
  const int64_t in_img = static_cast<int64_t>(d.cin) * d.h * d.w;
  const int64_t out_img = static_cast<int64_t>(d.cout) * d.ohw;
  const int64_t gk_size = static_cast<int64_t>(d.cout) * d.kcols;
  for (int img = 0; img < d.batch; ++img) {
    for (int oc = 0; oc < d.cout; ++oc) {
      const float* go_c = grad_output.data() + img * out_img +
                          static_cast<int64_t>(oc) * d.ohw;
      for (int i = 0; i < d.ohw; ++i) g.bias[oc] += go_c[i];
    }
  }
  std::vector<float> partials(static_cast<size_t>(d.batch * gk_size));
  std::vector<float> cols(static_cast<size_t>(d.kcols) * d.ohw);
  std::vector<float> cols_grad(cols.size());
  for (int img = 0; img < d.batch; ++img) {
    const float* go_n = grad_output.data() + img * out_img;
    ReferenceIm2col(input.data() + img * in_img, d.cin, d.h, d.w, d.kh, d.kw,
                    d.pad, d.oh, d.ow, cols.data());
    Sgemm(false, true, d.cout, d.kcols, d.ohw, go_n, d.ohw, cols.data(),
          d.ohw, partials.data() + img * gk_size, d.kcols,
          GemmAcc::kOverwrite);
    Sgemm(true, false, d.kcols, d.ohw, d.cout, kernel.data(), d.kcols, go_n,
          d.ohw, cols_grad.data(), d.ohw, GemmAcc::kOverwrite);
    ReferenceCol2im(cols_grad.data(), d.cin, d.h, d.w, d.kh, d.kw, d.pad,
                    d.oh, d.ow, g.input.data() + img * in_img);
  }
  for (int img = 0; img < d.batch; ++img) {
    for (int64_t i = 0; i < gk_size; ++i) {
      g.kernel[i] += partials[static_cast<size_t>(img * gk_size + i)];
    }
  }
  return g;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

class ConvLoweringBitExactTest
    : public ::testing::TestWithParam<std::tuple<ConvCase, int>> {};

TEST_P(ConvLoweringBitExactTest, MatchesPerImageLowering) {
  const auto [c, batch] = GetParam();
  const uint64_t seed = static_cast<uint64_t>(
      c.cin * 7919 + c.cout * 131 + c.h * 17 + c.w * 5 + c.pad + batch);
  const Tensor input = RandomTensor({batch, c.cin, c.h, c.w}, seed);
  const Tensor kernel = RandomTensor({c.cout, c.cin, c.kh, c.kw}, seed + 1);
  const Tensor bias = RandomTensor({c.cout}, seed + 2);

  const Tensor want_out = ReferenceConvForward(input, kernel, bias, c.pad);
  const Tensor grad_out = RandomTensor(want_out.shape(), seed + 3);
  const ConvGrads want = ReferenceConvBackward(input, kernel, c.pad, grad_out);

  const Tensor out = Conv2dForward(input, kernel, bias, c.pad);
  EXPECT_TRUE(SameBytes(out, want_out));
  Tensor gin, gker, gbias;
  Conv2dBackward(input, kernel, c.pad, grad_out, &gin, &gker, &gbias);
  EXPECT_TRUE(SameBytes(gin, want.input));
  EXPECT_TRUE(SameBytes(gker, want.kernel));
  EXPECT_TRUE(SameBytes(gbias, want.bias));
  // Without an input gradient the parameter gradients keep their bytes.
  Tensor gker_only, gbias_only;
  Conv2dBackward(input, kernel, c.pad, grad_out, nullptr, &gker_only,
                 &gbias_only);
  EXPECT_TRUE(SameBytes(gker_only, want.kernel));
  EXPECT_TRUE(SameBytes(gbias_only, want.bias));

  // The forward keeps its column matrices, which are the reference
  // lowering's, and the backward reads them instead of lowering again.
  std::vector<float> cols(
      static_cast<size_t>(Conv2dColumnFloats(input, kernel, c.pad)));
  const Tensor out_kept =
      Conv2dForward(input, kernel, bias, c.pad, cols.data());
  EXPECT_TRUE(SameBytes(out_kept, want_out));
  const ConvDims d = DimsOf(input, kernel, c.pad);
  const size_t cols_img = static_cast<size_t>(d.kcols) * d.ohw;
  std::vector<float> want_cols(cols_img);
  for (int img = 0; img < batch; ++img) {
    ReferenceIm2col(input.data() + img * d.cin * d.h * d.w, d.cin, d.h, d.w,
                    d.kh, d.kw, d.pad, d.oh, d.ow, want_cols.data());
    EXPECT_EQ(std::memcmp(cols.data() + img * cols_img, want_cols.data(),
                          cols_img * sizeof(float)),
              0)
        << "image " << img;
  }
  Tensor gin_kept, gker_kept, gbias_kept;
  Conv2dBackward(input, kernel, c.pad, grad_out, &gin_kept, &gker_kept,
                 &gbias_kept, cols.data());
  EXPECT_TRUE(SameBytes(gin_kept, want.input));
  EXPECT_TRUE(SameBytes(gker_kept, want.kernel));
  EXPECT_TRUE(SameBytes(gbias_kept, want.bias));
  Conv2dBackward(input, kernel, c.pad, grad_out, nullptr, &gker_kept,
                 &gbias_kept, cols.data());
  EXPECT_TRUE(SameBytes(gker_kept, want.kernel));
  EXPECT_TRUE(SameBytes(gbias_kept, want.bias));
}

// The zoo C10/C100 convs, then the lowering's edge cases: no border, a
// border at least as wide as the kernel (whole column-matrix rows are
// padding), 1x1 kernels, non-square images and kernels, and a 3-wide
// output (no compile-time row width).
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvLoweringBitExactTest,
    ::testing::Combine(
        ::testing::Values(ConvCase{"zoo0", 3, 8, 8, 8, 5, 5, 2},
                          ConvCase{"zoo1", 8, 16, 4, 4, 5, 5, 2},
                          ConvCase{"pad0", 2, 3, 6, 6, 3, 3, 0},
                          ConvCase{"k3pad3", 2, 4, 5, 5, 3, 3, 3},
                          ConvCase{"k1", 4, 5, 6, 6, 1, 1, 0},
                          ConvCase{"h5w7", 3, 4, 5, 7, 3, 3, 1},
                          ConvCase{"h5w7k3x5", 2, 3, 5, 7, 3, 5, 2},
                          ConvCase{"ow3", 3, 4, 6, 3, 5, 5, 2}),
        ::testing::Values(1, 64)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_batch" +
             std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------------------- determinism --

// The kernels must be stable when invoked from inside a pool worker (the
// trainer's inter-client ParallelFor): the same tile grid on any thread.
TEST(GemmDeterminismTest, InPoolExecutionMatchesTopLevel) {
  const Tensor a = RandomTensor({150, 64}, 81);
  const Tensor b = RandomTensor({64, 40}, 82);
  const Tensor top_level = MatMul(a, b);
  util::ThreadPool pool(2);
  std::vector<Tensor> from_workers(4);
  pool.ParallelFor(4, [&](int i) { from_workers[i] = MatMul(a, b); });
  for (const Tensor& got : from_workers) {
    EXPECT_EQ(MaxAbsDiff(got, top_level), 0.0f);
  }
}

TEST(GemmConfigTest, KernelNameIsResolved) {
  const std::string name = GemmKernelName();
  EXPECT_TRUE(name == "avx512+fma" || name == "avx2+fma" ||
              name == "portable")
      << name;
  EXPECT_NE(GemmByteFamily(), "") << name;
}

// A value the dispatch does not know, such as the name GemmKernelName()
// reports, must stop the program rather than run another kernel. The
// threadsafe style re-runs the test in a fresh process, whose kernel
// choice is not yet made.
TEST(GemmConfigDeathTest, UnknownKernelValueDies) {
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* previous = std::getenv("FEDMIGR_GEMM_KERNEL");
  const std::string saved = previous != nullptr ? previous : "";
  ASSERT_EQ(setenv("FEDMIGR_GEMM_KERNEL", "avx2+fma", 1), 0);
  EXPECT_DEATH(GemmKernelName(), "FEDMIGR_GEMM_KERNEL=avx2\\+fma");
  if (previous != nullptr) {
    setenv("FEDMIGR_GEMM_KERNEL", saved.c_str(), 1);
  } else {
    unsetenv("FEDMIGR_GEMM_KERNEL");
  }
  ::testing::GTEST_FLAG(death_test_style) = style;
}

}  // namespace
}  // namespace fedmigr::nn
