// Direct-loop reference convolution for the conv kernel tests.
//
// The obvious loop nests over Tensor::At, one output (or one gradient term)
// at a time, kept apart from the im2col/GEMM lowering in nn/ops.cc so the
// two share no indexing. Same layout and semantics as Conv2dForward and
// Conv2dBackward: NCHW, stride 1, symmetric zero padding.

#ifndef FEDMIGR_TESTS_NN_CONV_REFERENCE_H_
#define FEDMIGR_TESTS_NN_CONV_REFERENCE_H_

#include "nn/tensor.h"

namespace fedmigr::nn::testing {

inline Tensor ReferenceConv(const Tensor& input, const Tensor& kernel,
                            const Tensor& bias, int pad) {
  const int batch = input.dim(0), cin = input.dim(1);
  const int h = input.dim(2), w = input.dim(3);
  const int cout = kernel.dim(0), kh = kernel.dim(2), kw = kernel.dim(3);
  const int oh = h + 2 * pad - kh + 1, ow = w + 2 * pad - kw + 1;
  Tensor out({batch, cout, oh, ow});
  for (int n = 0; n < batch; ++n) {
    for (int oc = 0; oc < cout; ++oc) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float sum = bias[oc];
          for (int ic = 0; ic < cin; ++ic) {
            for (int ky = 0; ky < kh; ++ky) {
              for (int kx = 0; kx < kw; ++kx) {
                const int iy = oy + ky - pad, ix = ox + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                sum += input.At(n, ic, iy, ix) * kernel.At(oc, ic, ky, kx);
              }
            }
          }
          out.At(n, oc, oy, ox) = sum;
        }
      }
    }
  }
  return out;
}

// Gradients of ReferenceConv for an upstream gradient of its output's
// shape: each output element's gradient flows back to the bias, to every
// kernel tap it used and to every input element it read.
inline void ReferenceConvBackward(const Tensor& input, const Tensor& kernel,
                                  int pad, const Tensor& grad_output,
                                  Tensor* grad_input, Tensor* grad_kernel,
                                  Tensor* grad_bias) {
  const int batch = input.dim(0), cin = input.dim(1);
  const int h = input.dim(2), w = input.dim(3);
  const int cout = kernel.dim(0), kh = kernel.dim(2), kw = kernel.dim(3);
  const int oh = grad_output.dim(2), ow = grad_output.dim(3);
  *grad_input = Tensor(input.shape());
  *grad_kernel = Tensor(kernel.shape());
  *grad_bias = Tensor(Shape{cout});
  for (int n = 0; n < batch; ++n) {
    for (int oc = 0; oc < cout; ++oc) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          const float g = grad_output.At(n, oc, oy, ox);
          (*grad_bias)[oc] += g;
          for (int ic = 0; ic < cin; ++ic) {
            for (int ky = 0; ky < kh; ++ky) {
              for (int kx = 0; kx < kw; ++kx) {
                const int iy = oy + ky - pad, ix = ox + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                grad_kernel->At(oc, ic, ky, kx) += g * input.At(n, ic, iy, ix);
                grad_input->At(n, ic, iy, ix) += g * kernel.At(oc, ic, ky, kx);
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace fedmigr::nn::testing

#endif  // FEDMIGR_TESTS_NN_CONV_REFERENCE_H_
