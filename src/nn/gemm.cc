#include "nn/gemm.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define FEDMIGR_GEMM_X86 1
#else
#define FEDMIGR_GEMM_X86 0
#endif

#include "nn/scratch.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace fedmigr::nn {

namespace {

constexpr int kMR = 4;     // portable and AVX2 micro-tile rows
constexpr int kMaxMR = 8;  // AVX-512 micro-tile rows, the tallest tile
constexpr int kNR = kGemmPanelCols;  // micro-tile cols (one zmm, two ymm)

// -------------------------------------------------------------- telemetry --

// GEMM call/FLOP counters batch in a thread-local tally: parallel client
// threads issue tens of thousands of small GEMMs per epoch, and a shared
// fetch_add per call turns into cache-line ping-pong that alone can blow
// the <2% telemetry budget (DESIGN.md §11). Each thread publishes into the
// registry every kGemmTallyFlush calls, so registry reads lag a live thread
// by at most kGemmTallyFlush - 1 calls.
struct GemmTally {
  int64_t calls = 0;
  int64_t flops = 0;
};
thread_local GemmTally t_gemm_tally;
constexpr int64_t kGemmTallyFlush = 512;

void FlushGemmTally(GemmTally* tally) {
  static obs::Counter* gemm_calls =
      obs::Registry::Default().GetCounter("nn/gemm_calls");
  static obs::Counter* gemm_flops =
      obs::Registry::Default().GetCounter("nn/gemm_flops");
  gemm_calls->Add(tally->calls);
  gemm_flops->Add(tally->flops);
  tally->calls = 0;
  tally->flops = 0;
}

inline void BumpGemmTally(int64_t flops) {
  GemmTally& tally = t_gemm_tally;
  ++tally.calls;
  tally.flops += flops;
  if (tally.calls >= kGemmTallyFlush) FlushGemmTally(&tally);
}

// ----------------------------------------------------------- micro-kernel --

// Every micro-kernel computes one full tile of C, mr x kNR with mr its own
// row count (at c, row stride ldc), from P = sum_p A(r, p) * B(p, j),
// reading the operands through strides: A(r, p) = a[r * a_row_stride +
// p * a_k_stride] and B(p, j) = b[p * b_k_stride + j]. A packed panel is the
// case (1, mr) and kNR; an operand read in place passes its own layout.
// Each element's chain runs p = 0..k-1 in order, starting from 0
// (kOverwrite, kAddAfter) or from C (kSeedFromC); kAddAfter stores C + P
// once the chain is done.
void MicroKernelPortable(int k, const float* a, int a_row_stride,
                         int a_k_stride, const float* b, int b_k_stride,
                         float* c, int ldc, GemmAcc mode) {
  float acc[kMR][kNR];
  for (int r = 0; r < kMR; ++r) {
    const float* crow = c + static_cast<int64_t>(r) * ldc;
    for (int j = 0; j < kNR; ++j) {
      acc[r][j] = mode == GemmAcc::kSeedFromC ? crow[j] : 0.0f;
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* ap = a + static_cast<int64_t>(p) * a_k_stride;
    const float* bp = b + static_cast<int64_t>(p) * b_k_stride;
    for (int r = 0; r < kMR; ++r) {
      const float ar = ap[static_cast<int64_t>(r) * a_row_stride];
      for (int j = 0; j < kNR; ++j) acc[r][j] += ar * bp[j];
    }
  }
  for (int r = 0; r < kMR; ++r) {
    float* crow = c + static_cast<int64_t>(r) * ldc;
    for (int j = 0; j < kNR; ++j) {
      crow[j] = mode == GemmAcc::kAddAfter ? crow[j] + acc[r][j] : acc[r][j];
    }
  }
}

// The packed-operand copy of one kNR-column panel of op(B) when B is
// transposed: dst[p * kNR + j] = b[(j0 + j) * ldb + p] for j < cols, zero
// for cols <= j < kNR.
void PackBTransPortable(const float* b, int ldb, int j0, int cols, int k,
                        float* dst) {
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < cols; ++j) {
      dst[p * kNR + j] = b[static_cast<int64_t>(j0 + j) * ldb + p];
    }
    for (int j = cols; j < kNR; ++j) dst[p * kNR + j] = 0.0f;
  }
}

#if FEDMIGR_GEMM_X86
// The portable kernel's reduction order, with the 4x16 tile held in eight
// ymm accumulators and each multiply-add fused. Compiled for AVX2+FMA in
// this baseline TU via the target attribute; only called after a runtime
// CPU check. Cache-line aligned, so its k loop (87 bytes with GCC 12)
// sits in two lines wherever the code linked before it ends: when it
// straddled three, fig3-crosslan's epoch ran about 2% slower.
__attribute__((target("avx2,fma"), aligned(64))) void MicroKernelAvx2(
    int k, const float* a, int a_row_stride, int a_k_stride, const float* b,
    int b_k_stride, float* c, int ldc, GemmAcc mode) {
  float* c0 = c;
  float* c1 = c0 + ldc;
  float* c2 = c1 + ldc;
  float* c3 = c2 + ldc;
  __m256 c00 = _mm256_setzero_ps(), c01 = c00, c10 = c00, c11 = c00;
  __m256 c20 = c00, c21 = c00, c30 = c00, c31 = c00;
  if (mode == GemmAcc::kSeedFromC) {
    c00 = _mm256_loadu_ps(c0);
    c01 = _mm256_loadu_ps(c0 + 8);
    c10 = _mm256_loadu_ps(c1);
    c11 = _mm256_loadu_ps(c1 + 8);
    c20 = _mm256_loadu_ps(c2);
    c21 = _mm256_loadu_ps(c2 + 8);
    c30 = _mm256_loadu_ps(c3);
    c31 = _mm256_loadu_ps(c3 + 8);
  }
  // One A pointer and fixed row offsets: the loop then advances two
  // pointers per k step, which keeps it issue-bound on the FMAs.
  const int64_t a_r1 = a_row_stride, a_r2 = 2 * a_r1, a_r3 = 3 * a_r1;
  for (int p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    __m256 ar = _mm256_broadcast_ss(a);
    c00 = _mm256_fmadd_ps(ar, b0, c00);
    c01 = _mm256_fmadd_ps(ar, b1, c01);
    ar = _mm256_broadcast_ss(a + a_r1);
    c10 = _mm256_fmadd_ps(ar, b0, c10);
    c11 = _mm256_fmadd_ps(ar, b1, c11);
    ar = _mm256_broadcast_ss(a + a_r2);
    c20 = _mm256_fmadd_ps(ar, b0, c20);
    c21 = _mm256_fmadd_ps(ar, b1, c21);
    ar = _mm256_broadcast_ss(a + a_r3);
    c30 = _mm256_fmadd_ps(ar, b0, c30);
    c31 = _mm256_fmadd_ps(ar, b1, c31);
    a += a_k_stride;
    b += b_k_stride;
  }
  if (mode == GemmAcc::kAddAfter) {
    c00 = _mm256_add_ps(_mm256_loadu_ps(c0), c00);
    c01 = _mm256_add_ps(_mm256_loadu_ps(c0 + 8), c01);
    c10 = _mm256_add_ps(_mm256_loadu_ps(c1), c10);
    c11 = _mm256_add_ps(_mm256_loadu_ps(c1 + 8), c11);
    c20 = _mm256_add_ps(_mm256_loadu_ps(c2), c20);
    c21 = _mm256_add_ps(_mm256_loadu_ps(c2 + 8), c21);
    c30 = _mm256_add_ps(_mm256_loadu_ps(c3), c30);
    c31 = _mm256_add_ps(_mm256_loadu_ps(c3 + 8), c31);
  }
  _mm256_storeu_ps(c0, c00);
  _mm256_storeu_ps(c0 + 8, c01);
  _mm256_storeu_ps(c1, c10);
  _mm256_storeu_ps(c1 + 8, c11);
  _mm256_storeu_ps(c2, c20);
  _mm256_storeu_ps(c2 + 8, c21);
  _mm256_storeu_ps(c3, c30);
  _mm256_storeu_ps(c3 + 8, c31);
}

// The AVX2 kernel's chains on an 8x16 tile, one zmm accumulator per row of
// C: each element still takes fmadd(broadcast A, B, acc) in k order, seeded
// from C for kSeedFromC and added to C after the chain for kAddAfter, so
// every byte matches the AVX2 kernel's. Aligned like the AVX2 kernel.
__attribute__((target("avx512f"), aligned(64))) void MicroKernelAvx512(
    int k, const float* a, int a_row_stride, int a_k_stride, const float* b,
    int b_k_stride, float* c, int ldc, GemmAcc mode) {
  float* c0 = c;
  float* c1 = c0 + ldc;
  float* c2 = c1 + ldc;
  float* c3 = c2 + ldc;
  float* c4 = c3 + ldc;
  float* c5 = c4 + ldc;
  float* c6 = c5 + ldc;
  float* c7 = c6 + ldc;
  __m512 acc0 = _mm512_setzero_ps(), acc1 = acc0, acc2 = acc0, acc3 = acc0;
  __m512 acc4 = acc0, acc5 = acc0, acc6 = acc0, acc7 = acc0;
  if (mode == GemmAcc::kSeedFromC) {
    acc0 = _mm512_loadu_ps(c0);
    acc1 = _mm512_loadu_ps(c1);
    acc2 = _mm512_loadu_ps(c2);
    acc3 = _mm512_loadu_ps(c3);
    acc4 = _mm512_loadu_ps(c4);
    acc5 = _mm512_loadu_ps(c5);
    acc6 = _mm512_loadu_ps(c6);
    acc7 = _mm512_loadu_ps(c7);
  }
  const int64_t a_r1 = a_row_stride, a_r2 = 2 * a_r1, a_r3 = 3 * a_r1;
  const int64_t a_r4 = 4 * a_r1, a_r5 = 5 * a_r1, a_r6 = 6 * a_r1;
  const int64_t a_r7 = 7 * a_r1;
  for (int p = 0; p < k; ++p) {
    const __m512 bp = _mm512_loadu_ps(b);
    acc0 = _mm512_fmadd_ps(_mm512_set1_ps(a[0]), bp, acc0);
    acc1 = _mm512_fmadd_ps(_mm512_set1_ps(a[a_r1]), bp, acc1);
    acc2 = _mm512_fmadd_ps(_mm512_set1_ps(a[a_r2]), bp, acc2);
    acc3 = _mm512_fmadd_ps(_mm512_set1_ps(a[a_r3]), bp, acc3);
    acc4 = _mm512_fmadd_ps(_mm512_set1_ps(a[a_r4]), bp, acc4);
    acc5 = _mm512_fmadd_ps(_mm512_set1_ps(a[a_r5]), bp, acc5);
    acc6 = _mm512_fmadd_ps(_mm512_set1_ps(a[a_r6]), bp, acc6);
    acc7 = _mm512_fmadd_ps(_mm512_set1_ps(a[a_r7]), bp, acc7);
    a += a_k_stride;
    b += b_k_stride;
  }
  if (mode == GemmAcc::kAddAfter) {
    acc0 = _mm512_add_ps(_mm512_loadu_ps(c0), acc0);
    acc1 = _mm512_add_ps(_mm512_loadu_ps(c1), acc1);
    acc2 = _mm512_add_ps(_mm512_loadu_ps(c2), acc2);
    acc3 = _mm512_add_ps(_mm512_loadu_ps(c3), acc3);
    acc4 = _mm512_add_ps(_mm512_loadu_ps(c4), acc4);
    acc5 = _mm512_add_ps(_mm512_loadu_ps(c5), acc5);
    acc6 = _mm512_add_ps(_mm512_loadu_ps(c6), acc6);
    acc7 = _mm512_add_ps(_mm512_loadu_ps(c7), acc7);
  }
  _mm512_storeu_ps(c0, acc0);
  _mm512_storeu_ps(c1, acc1);
  _mm512_storeu_ps(c2, acc2);
  _mm512_storeu_ps(c3, acc3);
  _mm512_storeu_ps(c4, acc4);
  _mm512_storeu_ps(c5, acc5);
  _mm512_storeu_ps(c6, acc6);
  _mm512_storeu_ps(c7, acc7);
}

// PackBTransPortable with each 8 columns x 8 k-steps block moved through
// an 8x8 register transpose: eight rows of the n x k buffer in, eight
// k-rows of the panel out.
__attribute__((target("avx2"))) void PackBTransAvx2(const float* b, int ldb,
                                                    int j0, int cols, int k,
                                                    float* dst) {
  int j = 0;
  for (; j + 8 <= cols; j += 8) {
    const float* src = b + static_cast<int64_t>(j0 + j) * ldb;
    const int64_t stride = ldb;
    int p = 0;
    for (; p + 8 <= k; p += 8) {
      const __m256 r0 = _mm256_loadu_ps(src + 0 * stride + p);
      const __m256 r1 = _mm256_loadu_ps(src + 1 * stride + p);
      const __m256 r2 = _mm256_loadu_ps(src + 2 * stride + p);
      const __m256 r3 = _mm256_loadu_ps(src + 3 * stride + p);
      const __m256 r4 = _mm256_loadu_ps(src + 4 * stride + p);
      const __m256 r5 = _mm256_loadu_ps(src + 5 * stride + p);
      const __m256 r6 = _mm256_loadu_ps(src + 6 * stride + p);
      const __m256 r7 = _mm256_loadu_ps(src + 7 * stride + p);
      // Interleave pairs of rows, then quads; each 128-bit half of s_i
      // then holds four rows of one column.
      const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
      const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
      const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
      const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
      const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
      const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
      const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
      const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
      const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
      float* out = dst + p * kNR + j;
      _mm256_storeu_ps(out + 0 * kNR, _mm256_permute2f128_ps(s0, s4, 0x20));
      _mm256_storeu_ps(out + 1 * kNR, _mm256_permute2f128_ps(s1, s5, 0x20));
      _mm256_storeu_ps(out + 2 * kNR, _mm256_permute2f128_ps(s2, s6, 0x20));
      _mm256_storeu_ps(out + 3 * kNR, _mm256_permute2f128_ps(s3, s7, 0x20));
      _mm256_storeu_ps(out + 4 * kNR, _mm256_permute2f128_ps(s0, s4, 0x31));
      _mm256_storeu_ps(out + 5 * kNR, _mm256_permute2f128_ps(s1, s5, 0x31));
      _mm256_storeu_ps(out + 6 * kNR, _mm256_permute2f128_ps(s2, s6, 0x31));
      _mm256_storeu_ps(out + 7 * kNR, _mm256_permute2f128_ps(s3, s7, 0x31));
    }
    for (; p < k; ++p) {
      for (int jj = 0; jj < 8; ++jj) {
        dst[p * kNR + j + jj] = src[static_cast<int64_t>(jj) * ldb + p];
      }
    }
  }
  for (int p = 0; p < k; ++p) {
    for (int jj = j; jj < cols; ++jj) {
      dst[p * kNR + jj] = b[static_cast<int64_t>(j0 + jj) * ldb + p];
    }
    for (int jj = cols; jj < kNR; ++jj) dst[p * kNR + jj] = 0.0f;
  }
}

// The transpose of the 16x16 block in r, in place: row q becomes column q.
// Interleave pairs of rows, then quads, so that each 128-bit lane L of
// t[4g + c] holds rows 4g..4g+3 of column 4L + c; then gather lane L of the
// four row groups into row 4L + c, lanes 0-1 and 2-3 of groups (0, 1) and
// (2, 3) first, then one lane of each. The maskz forms with an all-ones
// mask compile to the plain shuffles; GCC 12 reports the plain intrinsics'
// undefined pass-through operand as maybe uninitialized.
__attribute__((target("avx512f"), always_inline)) inline void Transpose16x16(
    __m512 r[kNR]) {
  constexpr __mmask16 kAll = 0xffff;
  __m512 t[kNR];
#pragma GCC unroll 4
  for (int g = 0; g < 4; ++g) {
    const __m512 lo01 = _mm512_maskz_unpacklo_ps(kAll, r[4 * g], r[4 * g + 1]);
    const __m512 hi01 = _mm512_maskz_unpackhi_ps(kAll, r[4 * g], r[4 * g + 1]);
    const __m512 lo23 =
        _mm512_maskz_unpacklo_ps(kAll, r[4 * g + 2], r[4 * g + 3]);
    const __m512 hi23 =
        _mm512_maskz_unpackhi_ps(kAll, r[4 * g + 2], r[4 * g + 3]);
    t[4 * g + 0] = _mm512_maskz_shuffle_ps(kAll, lo01, lo23, 0x44);
    t[4 * g + 1] = _mm512_maskz_shuffle_ps(kAll, lo01, lo23, 0xee);
    t[4 * g + 2] = _mm512_maskz_shuffle_ps(kAll, hi01, hi23, 0x44);
    t[4 * g + 3] = _mm512_maskz_shuffle_ps(kAll, hi01, hi23, 0xee);
  }
#pragma GCC unroll 4
  for (int c = 0; c < 4; ++c) {
    const __m512 g01_lo =
        _mm512_maskz_shuffle_f32x4(kAll, t[c], t[4 + c], 0x44);
    const __m512 g01_hi =
        _mm512_maskz_shuffle_f32x4(kAll, t[c], t[4 + c], 0xee);
    const __m512 g23_lo =
        _mm512_maskz_shuffle_f32x4(kAll, t[8 + c], t[12 + c], 0x44);
    const __m512 g23_hi =
        _mm512_maskz_shuffle_f32x4(kAll, t[8 + c], t[12 + c], 0xee);
    r[c] = _mm512_maskz_shuffle_f32x4(kAll, g01_lo, g23_lo, 0x88);
    r[4 + c] = _mm512_maskz_shuffle_f32x4(kAll, g01_lo, g23_lo, 0xdd);
    r[8 + c] = _mm512_maskz_shuffle_f32x4(kAll, g01_hi, g23_hi, 0x88);
    r[12 + c] = _mm512_maskz_shuffle_f32x4(kAll, g01_hi, g23_hi, 0xdd);
  }
}

// The low n of 16 lanes, 0 <= n <= 16.
inline __mmask16 LowLanes(int n) {
  return static_cast<__mmask16>((1u << n) - 1);
}

// PackBTransPortable with each 16 k-steps of the panel moved through one
// 16x16 register transpose: row j of the block is column j0 + j of op(B),
// k-steps p..p+15 of it (a short panel's missing rows are zero and never
// loaded, and a k tail is a masked load), and row q of the transpose is
// k-row p + q of the panel (a k tail stores only its own rows). So every
// panel width and depth takes the same vector path.
__attribute__((target("avx512f"))) void PackBTransAvx512(const float* b,
                                                         int ldb, int j0,
                                                         int cols, int k,
                                                         float* dst) {
  const float* src = b + static_cast<int64_t>(j0) * ldb;
  for (int p = 0; p < k; p += kNR) {
    const int steps = std::min(kNR, k - p);
    const __mmask16 mask = LowLanes(steps);
    __m512 r[kNR];
#pragma GCC unroll 16
    for (int j = 0; j < kNR; ++j) {
      r[j] = j < cols ? _mm512_maskz_loadu_ps(
                            mask, src + static_cast<int64_t>(j) * ldb + p)
                      : _mm512_setzero_ps();
    }
    Transpose16x16(r);
#pragma GCC unroll 16
    for (int q = 0; q < kNR; ++q) {
      if (q < steps) _mm512_storeu_ps(dst + (p + q) * kNR, r[q]);
    }
  }
}
#endif  // FEDMIGR_GEMM_X86

using MicroKernelFn = void (*)(int, const float*, int, int, const float*, int,
                               float*, int, GemmAcc);
using PackBTransFn = void (*)(const float*, int, int, int, int, float*);

// One ISA's micro-kernel and its tile rows, the kernel that runs edge tiles
// of at most edge_mr rows (the same bytes on a shorter tile, so a short edge
// computes fewer padding rows) and the transposing B packer that goes with
// them.
struct KernelChoice {
  MicroKernelFn micro;
  int mr;
  MicroKernelFn edge_micro;
  int edge_mr;
  PackBTransFn pack_b_trans;
  const char* name;
};

// The widest kernel the CPU runs, unless FEDMIGR_GEMM_KERNEL names a
// narrower one: "avx2" skips the AVX-512 kernel, "portable" both vector
// kernels. The AVX-512 and AVX2 kernels write the same bytes; the portable
// kernel rounds each product. Any other value is a fatal error, so a
// mistyped value cannot run a kernel it did not name.
KernelChoice ResolveMicroKernel() {
  const char* env = std::getenv("FEDMIGR_GEMM_KERNEL");
  const std::string force = env != nullptr ? env : "";
  FEDMIGR_CHECK(force.empty() || force == "avx2" || force == "portable")
      << "FEDMIGR_GEMM_KERNEL=" << force
      << " is neither avx2 nor portable (unset: the widest kernel)";
#if FEDMIGR_GEMM_X86
  if (force != "portable" && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    if (force != "avx2" && __builtin_cpu_supports("avx512f")) {
      return {MicroKernelAvx512, kMaxMR, MicroKernelAvx2, kMR, PackBTransAvx512,
              "avx512+fma"};
    }
    return {MicroKernelAvx2, kMR, MicroKernelAvx2, kMR, PackBTransAvx2,
            "avx2+fma"};
  }
#endif
  return {MicroKernelPortable, kMR, MicroKernelPortable, kMR,
          PackBTransPortable, "portable"};
}

const KernelChoice& MicroKernel() {
  static const KernelChoice choice = ResolveMicroKernel();
  return choice;
}

// ---------------------------------------------------------------- packing --

// Operands read in place. When a GEMM's operands together hold at most this
// many floats (m*k + k*n), full tile-row panels of A (transposed or not) and
// full kNR-column panels of a non-transposed B are read where they lie, and
// only edge panels and transposed B are packed. Every zoo GEMM holds at most
// 6400 floats. Larger GEMMs pack every panel, because strided reads of B
// rows stop fitting the L1 cache: on a 4-vCPU shared Xeon VM (2.0 GHz,
// 48 KiB L1d, GCC 12, Release, AVX2 kernel), reading everything in place
// made BM_MatMul/256 and /512 27-39% slower than packing, and at /128
// (32768 floats) the two were within the host's noise (64-96 us in place
// against 74-81 us packed, four alternating medians), so the cut sits
// below that.
constexpr int64_t kInPlaceMaxFloats = 16384;

// Packs rows [i0, i0 + rows) of op(A), rows <= mr, into one mr-row panel
// stored k-major (mr consecutive floats per k step), zero-padding a short
// panel.
void PackAPanel(const float* a, int lda, bool trans, int i0, int rows, int mr,
                int k, float* dst) {
  for (int p = 0; p < k; ++p) {
    for (int r = 0; r < rows; ++r) {
      dst[p * mr + r] = trans ? a[static_cast<int64_t>(p) * lda + i0 + r]
                              : a[static_cast<int64_t>(i0 + r) * lda + p];
    }
    for (int r = rows; r < mr; ++r) dst[p * mr + r] = 0.0f;
  }
}

// Packs columns [j0, j0 + cols) of op(B), cols <= kNR, into one kNR-column
// panel stored k-major, zero-padding a short panel.
void PackBPanel(const KernelChoice& kernel, const float* b, int ldb,
                bool trans, int j0, int cols, int k, float* dst) {
  if (trans) {
    kernel.pack_b_trans(b, ldb, j0, cols, k, dst);
    return;
  }
  for (int p = 0; p < k; ++p) {
    const float* src = b + static_cast<int64_t>(p) * ldb + j0;
    float* out = dst + p * kNR;
    if (cols == kNR) {
      // A fixed-size copy, inlined as vector moves: a memcpy of a
      // run-time size here is a library call per k step.
      std::memcpy(out, src, kNR * sizeof(float));
      continue;
    }
    for (int j = 0; j < cols; ++j) out[j] = src[j];
    for (int j = cols; j < kNR; ++j) out[j] = 0.0f;
  }
}

}  // namespace

int GetIntraOpThreads() { return 1; }

const char* GemmKernelName() { return MicroKernel().name; }

namespace {

// The body of Sgemm and SgemmSegments: C combined per `acc` with op(A)·op(B)
// over each k range that k_ends cuts (non-decreasing, a positive total), in
// turn; more than one segment takes kAddAfter. Tiles are the outer loops
// and segments the inner one, so the per-call work (telemetry, scratch, the
// packing) is paid once however many segments there are. Packing covers the
// whole k range, and a segment's chain reads its own rows of the panels;
// each element of C is still one k-chain per segment, added in segment
// order, whatever the tiling or packing.
// KEnds is std::array<int, 1> for Sgemm, so its one-segment loops compile
// away, or a span of segment ends.
template <class KEnds>
void GemmOverSegments(bool trans_a, bool trans_b, int m, int n,
                      const KEnds& k_ends, const float* a, int lda,
                      const float* b, int ldb, float* c, int ldc,
                      GemmAcc acc) {
  const int k = k_ends.back();
  int k_max = 0;
  for (int k0 = 0; const int k1 : k_ends) {
    k_max = std::max(k_max, k1 - k0);
    k0 = k1;
  }
  // FLOP accounting is per-call; the wall-clock histogram only kicks in
  // above a work threshold so small GEMMs (DRL scoring, 1×F rows) never
  // pay for a clock read.
  constexpr int64_t kTimedFlopThreshold = int64_t{1} << 20;
  const int64_t flops = 2ll * m * n * k;
  int64_t start_ns = 0;
  if (obs::Telemetry::enabled()) {
    BumpGemmTally(flops);
    if (flops >= kTimedFlopThreshold) start_ns = obs::MonotonicNowNs();
  }

  const KernelChoice& kernel = MicroKernel();
  // The in-place rule weighs the operand span one chain reads: a segment.
  const bool in_place =
      static_cast<int64_t>(m) * k_max + static_cast<int64_t>(k_max) * n <=
      kInPlaceMaxFloats;
  const int n_panels = (n + kNR - 1) / kNR;
  auto b_in_place = [&](int np) {
    return in_place && !trans_b && (np + 1) * kNR <= n;
  };

  ScratchArena::Scope scope;
  float* bp = ScratchArena::ThreadLocal().AllocFloats(
      static_cast<int64_t>(n_panels) * k * kNR);
  for (int np = 0; np < n_panels; ++np) {
    if (b_in_place(np)) continue;
    PackBPanel(kernel, b, ldb, trans_b, np * kNR, std::min(kNR, n - np * kNR),
               k, bp + static_cast<int64_t>(np) * k * kNR);
  }

  // Each element of C is computed by one tile, so the choice to pack cannot
  // change a bit.
  const int tile_rows = kernel.mr;
  float* ap = ScratchArena::ThreadLocal().AllocFloats(
      static_cast<int64_t>(k) * tile_rows);
  // Edge tiles (fewer rows than the tile they run, or fewer than kNR columns
  // of C) run through this buffer, since a micro-kernel always covers a full
  // tile.
  alignas(64) float tile[kMaxMR * kNR] = {};
  for (int i0 = 0; i0 < m; i0 += tile_rows) {
    const int mr = std::min(tile_rows, m - i0);
    // A tile of at most edge_mr rows runs the edge kernel's shorter tile.
    const bool edge = mr <= kernel.edge_mr;
    const MicroKernelFn micro = edge ? kernel.edge_micro : kernel.micro;
    const int run_rows = edge ? kernel.edge_mr : tile_rows;
    const float* a_panel = ap;
    int a_row_stride = 1, a_k_stride = run_rows;
    if (in_place && mr == run_rows) {
      a_panel = trans_a ? a + i0 : a + static_cast<int64_t>(i0) * lda;
      a_row_stride = trans_a ? 1 : lda;
      a_k_stride = trans_a ? lda : 1;
    } else {
      PackAPanel(a, lda, trans_a, i0, mr, run_rows, k, ap);
    }
    for (int np = 0; np < n_panels; ++np) {
      const int j0 = np * kNR;
      const int nr = std::min(kNR, n - j0);
      const bool b_direct = b_in_place(np);
      const float* b_panel =
          b_direct ? b + j0 : bp + static_cast<int64_t>(np) * k * kNR;
      const int b_k_stride = b_direct ? ldb : kNR;
      float* c_tile = c + static_cast<int64_t>(i0) * ldc + j0;
      const bool full = mr == run_rows && nr == kNR;
      float* out = full ? c_tile : tile;
      const int ld_out = full ? ldc : kNR;
      if (!full && acc != GemmAcc::kOverwrite) {
        for (int r = 0; r < mr; ++r) {
          std::memcpy(tile + r * kNR, c_tile + static_cast<int64_t>(r) * ldc,
                      static_cast<size_t>(nr) * sizeof(float));
        }
      }
      for (int k0 = 0; const int k1 : k_ends) {
        if (k1 > k0) {
          micro(k1 - k0, a_panel + static_cast<int64_t>(k0) * a_k_stride,
                a_row_stride, a_k_stride,
                b_panel + static_cast<int64_t>(k0) * b_k_stride, b_k_stride,
                out, ld_out, acc);
        }
        k0 = k1;
      }
      if (full) continue;
      for (int r = 0; r < mr; ++r) {
        std::memcpy(c_tile + static_cast<int64_t>(r) * ldc, tile + r * kNR,
                    static_cast<size_t>(nr) * sizeof(float));
      }
    }
  }

  if (start_ns != 0) {
    static obs::Histogram* gemm_ms = obs::Registry::Default().GetHistogram(
        obs::Registry::LabeledName("nn/gemm_ms",
                                   {{"kernel", GemmKernelName()}}));
    gemm_ms->Observe(static_cast<double>(obs::MonotonicNowNs() - start_ns) *
                     1e-6);
  }
}

}  // namespace

void Sgemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
           int lda, const float* b, int ldb, float* c, int ldc, GemmAcc acc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (acc == GemmAcc::kOverwrite) {
      for (int i = 0; i < m; ++i) {
        std::memset(c + static_cast<size_t>(i) * ldc, 0, n * sizeof(float));
      }
    }
    return;
  }
  GemmOverSegments(trans_a, trans_b, m, n, std::array<int, 1>{k}, a, lda, b,
                   ldb, c, ldc, acc);
}

void SgemmSegments(bool trans_a, bool trans_b, int m, int n,
                   std::span<const int> k_ends, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc) {
  for (int k0 = 0; const int k1 : k_ends) {
    FEDMIGR_CHECK_GE(k1, k0) << "segment ends must not decrease";
    k0 = k1;
  }
  if (m <= 0 || n <= 0 || k_ends.empty() || k_ends.back() == 0) return;
  GemmOverSegments(trans_a, trans_b, m, n, k_ends, a, lda, b, ldb, c, ldc,
                   GemmAcc::kAddAfter);
}

}  // namespace fedmigr::nn
