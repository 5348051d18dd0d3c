// Blocked, vectorized SGEMM — the kernel every dense and (via im2col)
// convolution op in the NN substrate lowers onto.
//
// Scheme: C is cut into tiles of 16 columns and the micro-kernel's rows (8
// on AVX-512, 4 on AVX2 and the portable kernel; on AVX-512 an edge of at
// most 4 rows runs the AVX2 kernel's 4-row tile); a register-tiled
// micro-kernel computes each tile's full K reduction in one pass, reading
// A through a (row, k) stride pair and B through a k stride. The tiles run
// serially on the calling thread; the trainer's client pool is the only
// parallelism. Each operand is read in place or packed by a shape rule:
// when m*k + k*n is small (every zoo GEMM), full tile-row panels of A
// (transposed or not) and full 16-column panels of a non-transposed B are
// read where they lie, and only edge panels and transposed B are copied
// into packed panels (transposed B through one 16x16 register transpose per
// 16 k-steps on AVX-512, 8x8 transposes on AVX2). Larger GEMMs pack every
// panel.
// The micro-kernel is AVX-512 (8x16), AVX2+FMA (4x16) or portable C (4x16),
// chosen once at the first call by runtime CPU dispatch (GemmKernelName).
// SgemmSegments runs the same body with the k range cut into segments:
// each tile runs one chain per segment, in order, over panels packed once
// for the whole range.
//
// Determinism contract: each element of C is one in-order chain over
// k = 0..K-1, seeded from 0 (kOverwrite, kAddAfter) or from C (kSeedFromC),
// each step a fused multiply-add on the AVX-512 and AVX2+FMA kernels and a
// rounded product then an add on the portable kernel; kAddAfter adds the
// finished chain to C once. Packing only copies values, and no step depends
// on the tiling (so not on the tile height either), the packing decision
// or the calling thread, so results are bit-identical across runs for a
// fixed byte family: the two fused kernels write the same bytes, the
// portable kernel its own. GemmBitExactTest and GemmTileSweepTest pin this
// chain byte for byte against a scalar reference under every kernel. The
// portable kernel reproduces the legacy scalar kernels' mul-then-add
// sequence (the build sets -ffp-contract=off so that no compiler fuses
// it); the fused kernels match it only to within 1 ulp per multiply-add.
// SgemmSegments keeps the contract per segment (see its declaration).

#ifndef FEDMIGR_NN_GEMM_H_
#define FEDMIGR_NN_GEMM_H_

#include <span>

namespace fedmigr::nn {

// Columns of C per micro-tile, the width of each packed panel of op(B). A
// GEMM whose n is a multiple of it has no edge columns.
inline constexpr int kGemmPanelCols = 16;

// How Sgemm combines the computed product P = op(A)·op(B) with the
// existing contents of C. Because float addition is not associative the
// three modes are numerically distinct; each mirrors one legacy kernel's
// reduction order:
enum class GemmAcc {
  // C = P; the k-sum is seeded from zero (legacy MatMul into a fresh C).
  kOverwrite,
  // C seeds the k-accumulation: C = ((C + p_0) + p_1) + ... (legacy conv
  // forward, where the output plane is pre-filled with the bias).
  kSeedFromC,
  // P is fully reduced in registers first, then added: C = C + P (legacy
  // conv weight-gradient, a register tap-sum flushed into memory).
  kAddAfter,
};

// C (m x n, leading dim ldc) = op(A) · op(B) combined with C per `acc`.
// All matrices are row-major. op(A) is A itself (m x k, leading dim lda)
// or, when trans_a, the transpose of a k x m buffer — element (i, p) is
// read as a[p * lda + i]. op(B) likewise is k x n, or with trans_b the
// transpose of an n x k buffer.
void Sgemm(bool trans_a, bool trans_b, int m, int n, int k, const float* a,
           int lda, const float* b, int ldb, float* c, int ldc,
           GemmAcc acc = GemmAcc::kOverwrite);

// Segmented-K accumulate: the weight gradient of a batch cut into row
// segments, reduced one segment at a time. k_ends cuts the k range
// [0, k_ends.back()) into segments (non-decreasing; segment s spans
// [k_ends[s-1], k_ends[s]), k_ends[-1] being 0), and
//   C = (((C + P_0) + P_1) + ...),   P_s = op(A)·op(B) over segment s,
// where each element of P_s is one in-order k-chain over its segment seeded
// from 0, exactly as kAddAfter computes it, and C takes the P_s in segment
// order. Contract: byte-equal, under every micro-kernel, to one
// Sgemm(trans_a, trans_b, m, n, k_s, A_s, lda, B_s, ldb, c, ldc,
// GemmAcc::kAddAfter) per segment, run in order, where A_s and B_s are the
// operands' slices for the segment's k range (GemmSegmentsTest pins it).
// One segment is that single kAddAfter call, so a plain batch's gradient
// keeps its bytes; a segment per sample gives the bytes of a per-sample
// backward loop.
void SgemmSegments(bool trans_a, bool trans_b, int m, int n,
                   std::span<const int> k_ends, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc);

// Always 1: the kernels run serially on the calling thread. It remains
// only because perfbench prints it in its run header (perfbench.cc).
int GetIntraOpThreads();

// Name of the micro-kernel runtime dispatch selected on this machine:
// "avx512+fma", "avx2+fma" or "portable", the widest the CPU runs.
// FEDMIGR_GEMM_KERNEL narrows it: "avx2" skips the AVX-512 kernel (same
// bytes), "portable" forces the portable path (bit-compatible with the
// legacy scalar kernels); any other non-empty value is a fatal error.
const char* GemmKernelName();

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_GEMM_H_
