// Tensor and model helpers the tests share: the distances they compare by,
// the transposed-A product the program computes through Sgemm directly, and
// the byte family of the GEMM kernel in use, which picks a pin's column.

#ifndef FEDMIGR_TESTS_NN_TENSOR_HELPERS_H_
#define FEDMIGR_TESTS_NN_TENSOR_HELPERS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "nn/gemm.h"
#include "nn/sequential.h"
#include "nn/tensor.h"
#include "util/logging.h"

namespace fedmigr::nn {

// Max absolute elementwise difference (same element count).
inline float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.size(), b.size());
  float max_diff = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

// L2 distance between two models' parameter vectors (same architecture).
inline double ParamDistance(const Sequential& a, const Sequential& b) {
  auto pa = a.Params();
  auto pb = b.Params();
  FEDMIGR_CHECK_EQ(pa.size(), pb.size());
  double sum = 0.0;
  for (size_t i = 0; i < pa.size(); ++i) {
    FEDMIGR_CHECK(pa[i]->SameShape(*pb[i]));
    for (int64_t j = 0; j < pa[i]->size(); ++j) {
      const double diff = (*pa[i])[j] - (*pb[i])[j];
      sum += diff * diff;
    }
  }
  return std::sqrt(sum);
}

// C = Aᵀ·B for A [K, M] and B [K, N]: one Sgemm with transA, the call the
// weight gradients make on their own buffers.
inline Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.ndim(), 2);
  FEDMIGR_CHECK_EQ(b.ndim(), 2);
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  FEDMIGR_CHECK_EQ(b.dim(0), k);
  Tensor c({m, n});
  Sgemm(true, false, m, n, k, a.data(), m, b.data(), n, c.data(), n);
  return c;
}

// The pin column for the GEMM kernel in use: "fused" for the AVX-512 and
// AVX2 kernels, which run the same fused multiply-add chains and so write
// the same bytes, "portable" for the kernel that rounds each product, and
// empty for a kernel no pin has a column for.
inline std::string GemmByteFamily() {
  const std::string kernel = GemmKernelName();
  if (kernel == "avx512+fma" || kernel == "avx2+fma") return "fused";
  if (kernel == "portable") return kernel;
  return "";
}

}  // namespace fedmigr::nn

#endif  // FEDMIGR_TESTS_NN_TENSOR_HELPERS_H_
